package obs

// inspect.go defines the introspection view the admin surface serves on
// /inspect and tps.Platform.Inspect() returns: not
// counters but *structure* — who this peer is connected to and in what
// health, and which type subscriptions are live. Like View, the JSON
// shape is governed by SchemaVersion.

// Peer-entry kinds.
const (
	// PeerRendezvous is a rendezvous this peer holds a lease with.
	PeerRendezvous = "rendezvous"
	// PeerClient is an edge peer leased to this (rendezvous) peer.
	PeerClient = "client"
	// PeerSeed is a configured seed address, connected or not.
	PeerSeed = "seed"
)

// PeerEntry describes one remote peer (or configured seed) and the
// failure-detector state of its address.
type PeerEntry struct {
	// ID is the remote peer's URN; empty for seeds we never reached.
	ID string `json:"id,omitempty"`
	// Addr is the endpoint address sends go to.
	Addr string `json:"addr,omitempty"`
	// Kind is one of PeerRendezvous, PeerClient, PeerSeed.
	Kind string `json:"kind"`
	// Groups are the groups a client or rendezvous lease carries, sorted;
	// [""] for the mesh leases rendezvous hold with each other, which
	// carry every group.
	Groups []string `json:"groups,omitempty"`
	// ExpiresInMS is the remaining lease time; 0 when not leased.
	ExpiresInMS int64 `json:"expires_in_ms,omitempty"`
	// Fails is the address's consecutive send-failure count.
	Fails int `json:"fails,omitempty"`
	// Suspect reports the failure detector is probing the address.
	Suspect bool `json:"suspect,omitempty"`
	// BreakerOpenMS is the remaining eviction-breaker cooldown; 0 when
	// the breaker is closed.
	BreakerOpenMS int64 `json:"breaker_open_ms,omitempty"`
	// Leased reports, for seed entries, whether a lease is currently
	// held with this specific seed — AwaitConnected only promises SOME
	// lease, so this is where mixed seed health becomes visible.
	Leased bool `json:"leased,omitempty"`
	// Active marks, in active/standby failover mode, the seed the peer
	// currently elects as its primary rendezvous.
	Active bool `json:"active,omitempty"`
}

// ReplicaTopicLag compares one replicated (origin, topic) log stream's
// tail on this peer against a replica's advertised tail.
type ReplicaTopicLag struct {
	// Origin is the rendezvous whose log numbered the stream.
	Origin string `json:"origin"`
	// Topic is the stream's topic (group parameter).
	Topic string `json:"topic"`
	// LocalLast and RemoteLast are the highest contiguous sequences
	// held here and advertised by the replica. RemoteLast > LocalLast
	// means this peer is behind and will pull the difference.
	LocalLast  uint64 `json:"local_last"`
	RemoteLast uint64 `json:"remote_last"`
}

// ReplicaEntry describes one member of this rendezvous peer's replica
// set and the anti-entropy state against it.
type ReplicaEntry struct {
	// Addr is the replica's configured address.
	Addr string `json:"addr"`
	// ID is the replica's URN, empty until it first syncs.
	ID string `json:"id,omitempty"`
	// LastSyncAgoMS is the time since the replica's last digest was
	// received; -1 when it never synced.
	LastSyncAgoMS int64 `json:"last_sync_ago_ms"`
	// Topics compares per-stream tails, from the replica's last digest.
	Topics []ReplicaTopicLag `json:"topics,omitempty"`
}

// SubscriptionEntry describes the live delivery state of one subscribed
// type hierarchy root.
type SubscriptionEntry struct {
	// Type is the registry path of the subscription's root type.
	Type string `json:"type"`
	// Subscribers is how many callback registrations target the root.
	Subscribers int `json:"subscribers"`
	// Attachments is how many per-type event groups are joined for the
	// root's subtree.
	Attachments int `json:"attachments"`
	// Ready is how many of those attachments are connected and
	// delivering.
	Ready int `json:"ready"`
}

// LogTopicEntry describes one topic's retained range in the durable
// event log (rendezvous peers with Config.LogDir set).
type LogTopicEntry struct {
	// Topic is the log topic — the group parameter events propagate
	// under.
	Topic string `json:"topic"`
	// FirstSeq and LastSeq bound the retained sequence range; both 0
	// when the topic holds no entries.
	FirstSeq uint64 `json:"first_seq"`
	LastSeq  uint64 `json:"last_seq"`
	// Segments and Bytes describe the on-disk footprint.
	Segments int   `json:"segments"`
	Bytes    int64 `json:"bytes"`
}

// CursorEntry is one (group, log origin) replay cursor an engine tracks:
// the highest log sequence number delivered from that origin.
type CursorEntry struct {
	// Group is the peer group (topic) the cursor belongs to.
	Group string `json:"group"`
	// Origin is the rendezvous peer whose log numbered the events.
	Origin string `json:"origin"`
	// Seq is the last delivered sequence number.
	Seq uint64 `json:"seq"`
}

// Inspection is the structural self-description of one peer.
type Inspection struct {
	// Schema is SchemaVersion at build time.
	Schema int `json:"schema"`
	// PeerID is this peer's URN.
	PeerID string `json:"peer_id"`
	// Name is the peer's human-readable name.
	Name string `json:"name,omitempty"`
	// Addresses are this peer's reachable addresses, best first.
	Addresses []string `json:"addresses,omitempty"`
	// Rendezvous reports whether the peer has the rendezvous role.
	Rendezvous bool `json:"rendezvous,omitempty"`
	// Peers lists connected peers, leased clients and configured seeds.
	Peers []PeerEntry `json:"peers"`
	// Subscriptions lists the live subscription table across engines.
	Subscriptions []SubscriptionEntry `json:"subscriptions"`
	// Types lists every registered event-type path.
	Types []string `json:"types,omitempty"`
	// EventLog lists per-topic retained ranges of the durable event log;
	// empty when the peer runs without a log.
	EventLog []LogTopicEntry `json:"event_log,omitempty"`
	// Cursors lists the engines' replay cursors: the highest log
	// sequence delivered per (group, origin rendezvous).
	Cursors []CursorEntry `json:"cursors,omitempty"`
	// Replicas lists the rendezvous replica set and per-stream sync
	// lag; empty when the peer replicates nothing.
	Replicas []ReplicaEntry `json:"replicas,omitempty"`
}
