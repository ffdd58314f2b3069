// Package rendezvous implements JXTA rendezvous peers and their clients.
//
// Rendezvous (rdv) peers keep track of connected peers and bridge
// sub-networks: edge peers hold a renewable lease with one or more
// rendezvous, and messages propagated into the mesh fan out from
// rendezvous to their connected peers and on to neighbouring rendezvous,
// with TTL, path stamping and a hop filter suppressing loops: a peer
// numbers the messages it injects into a group as one stream, and drops
// a frame whose (publisher, stream, sequence) it has already had
// (hops.go).
//
// The TPS engine rides on Propagate; so do the baselines' discovery and
// wire services. Each reads its group as the group's one Reader (Read),
// which a received frame of the group reaches past the hop filter alone.
//
// A peer runs one Service, whatever groups it is in: its lease tables,
// its failure detector, its hop filter and its maintenance loop are
// the peer's, not a group's. A lease is the peer's too: each table holds
// one entry per peer, with the set of groups the lease carries. An edge
// leases the groups it joins (Join, Leave) with each of its seeds, and a
// rendezvous leases "" with its own seeds, which carries every group;
// one connect per seed per renewal carries the peer's whole set, and its
// grant echoes it. Each lease a rendezvous starts is an epoch, named in
// every grant of it, so an edge tells a new lease from a renewal however
// many grants were lost, and tells its listeners of each group a grant
// newly covers.
//
// The control plane — the lease tables, seed election and the failure
// detector — is one pure state machine, the core (core.go): step(now,
// input) returns outputs, and the core holds no lock, reads no clock,
// starts no goroutine and touches no endpoint. The Service is its driver
// (lease.go): it decodes a frame or a call into an input, steps under
// s.mu, and carries the outputs out after letting go — control frames,
// lease listeners, wake-ups — feeding back the result of each connect
// and of each probe, fan-out and digest send. The core keeps the
// fan-out's per-group list of the leases that carry the group, which
// moves when a lease comes, goes or changes its set, not when it is
// renewed. The driver publishes a copy of the lists, with each lease's
// address and expiry, that nobody changes, and marks it stale after a
// step that may move them; so the per-message path (propagate.go) reads
// its targets and settles sends that all arrived without s.mu, and
// takes it once after such a step, or when a send failed or the
// detector holds an entry. A log server
// (logserver.go, sync.go) exists on rendezvous peers with an event log
// alone: an edge peer never constructs one, so replay and sync ops
// addressed to it are dropped at dispatch.
package rendezvous

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tps-p2p/tps/internal/eventlog"
	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/jxta/message"
	"github.com/tps-p2p/tps/internal/obs/trace"
)

// ServiceName is the endpoint service name of the rendezvous protocol.
const ServiceName = "jxta.rdv"

// Message element names, namespace "rdv". Numeric elements (Seed, Lease,
// Epoch and the replay/sync fields in replay.go and sync.go) are 8-byte
// big-endian (message.AddUint64); an op whose numeric element is absent
// or of any other length is dropped, as is a connect or a grant whose
// Groups is malformed (parseSet).
const (
	elemNS     = "rdv"
	elemOp     = "Op"
	elemDSvc   = "DSvc"
	elemDParam = "DParam"
	// elemLease carries the granted lease duration in milliseconds.
	elemLease = "Lease"
	// elemEpoch carries the lease epoch a grant belongs to: drawn by the
	// granting side for each lease it starts, different across its
	// restarts, the same on every renewal. A connect carries the epoch of
	// the live lease its peer holds through the seed, 0 for none.
	elemEpoch = "Epoch"
	// elemSeed names the seed a connect was sent to, by its place in
	// the connecting peer's Seeds counted from 1; the grant that answers
	// the connect echoes it. It is how a peer tells which of its seeds a
	// grant comes from, whatever address the rendezvous reports.
	elemSeed = "Seed"
	// elemGroups carries, in a connect, the sorted set of groups the
	// connecting peer leases — "" alone for a rendezvous, which carries
	// every group — and, in the grant that answers it, the same set
	// (appendSet). A connect replaces the set of the peer's lease.
	elemGroups = "Groups"
)

// Operations.
const (
	opConnect    = "connect"
	opLease      = "lease"
	opDisconnect = "disconnect"
	opProp       = "prop"
	opPing       = "ping"
	opPong       = "pong"
)

// Role of a peer in the rendezvous protocol.
type Role int

// Roles. Edge peers lease into the mesh; rendezvous peers form it.
const (
	RoleEdge Role = iota + 1
	RoleRendezvous
)

// Endpoint is the slice of the endpoint service the rendezvous protocol
// needs: sending and handler registration. The frame methods let fanOut
// write a propagated message once — encoded at its origin, forwarded
// from the received bytes at every hop after — and send the same bytes
// to every target instead of re-enveloping per peer.
type Endpoint interface {
	endpoint.Sender
	EncodeFrame(svc, param string, msg *message.Message, envelope ...message.Field) ([]byte, error)
	Forward(svc, param string, v message.View, stamps ...message.Element) ([]byte, error)
	SendFrame(to endpoint.Address, frame []byte) error
	RegisterHandler(svc, param string, h endpoint.Handler) error
	UnregisterHandler(svc, param string)
}

// Config configures a peer's rendezvous service. It is the only
// declaration of these knobs: the layers above (peer, tps) carry a
// Config whole instead of re-declaring its fields.
type Config struct {
	// Role selects edge or rendezvous behaviour.
	Role Role
	// Seeds are addresses of rendezvous peers to connect to. Edge peers
	// need at least one to reach beyond their own process; rendezvous
	// peers use seeds to form a mesh with other rendezvous.
	Seeds []endpoint.Address
	// LeaseTTL is how long a granted lease lasts. Clients renew at a
	// third of the TTL. Zero means DefaultLeaseTTL.
	LeaseTTL time.Duration
	// Clock substitutes the time source (tests). Nil means time.Now.
	Clock func() time.Time
	// SuspectAfter is the number of consecutive send failures after
	// which a peer is marked suspect and probed with a ping. Zero means
	// DefaultSuspectAfter.
	SuspectAfter int
	// EvictAfter is the number of consecutive send failures after which
	// a peer is evicted from the connection tables and its address
	// breaker opens for one LeaseTTL — the time after which the peer's
	// leases would have lapsed anyway. Zero means DefaultEvictAfter.
	EvictAfter int
	// Log, when set on a rendezvous-role service, makes propagation
	// durable: every message this peer fans out is appended to the
	// per-topic log first (stamped with its sequence number), and replay
	// requests from reconnecting subscribers are served from it. Nil —
	// the default — leaves the fire-and-forget hot path untouched.
	Log *eventlog.Log
	// Tracer, when set, archives a forward-stage hop record for every
	// propagated message that carries a trace element (stamped by the
	// publishing engine for sampled events). Untraced messages pay one
	// allocation-free element probe; nil skips even that.
	Tracer *trace.Store
	// ReplicaSeeds are the addresses of the other rendezvous in this
	// peer's replica set. A rendezvous-role service with a Log and
	// replica seeds runs the anti-entropy sync loop (sync.go): it
	// exchanges per-topic log digests with the replicas and pulls the
	// suffixes it is missing, so any one replica can serve another's
	// retained history after a crash. Replicas are not mesh-seeded with
	// each other; anti-entropy is the only replication path.
	ReplicaSeeds []endpoint.Address
	// SyncInterval is the anti-entropy digest cadence. Zero means
	// DefaultSyncInterval.
	SyncInterval time.Duration
	// ActiveStandby switches seed handling from "lease with every seed"
	// to "lease with exactly one": the active, initially Seeds[0], with
	// the rest as standbys. When the failure detector declares the
	// active dead (eviction breaker open, or EvictAfter consecutive
	// connect failures), the client re-leases against the next healthy
	// standby on the seed backoff curve and the engine's cursor
	// machinery replays the handover gap from the new replica. All
	// clients of a replica set must list the seeds in the same order so
	// they converge on the same active.
	ActiveStandby bool
}

// DefaultLeaseTTL is the lease duration granted by rendezvous peers.
const DefaultLeaseTTL = 30 * time.Second

// Failure-detection defaults.
const (
	DefaultSuspectAfter = 2
	DefaultEvictAfter   = 4
)

// normalise replaces every zero-means-default field with its default,
// so the rest of the package reads cfg without re-deriving them.
func (c *Config) normalise() {
	if c.Clock == nil {
		c.Clock = time.Now
	}
	c.LeaseTTL = cmp.Or(c.LeaseTTL, DefaultLeaseTTL)
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = DefaultSuspectAfter
	}
	if c.EvictAfter <= 0 {
		c.EvictAfter = DefaultEvictAfter
	}
	c.EvictAfter = max(c.EvictAfter, c.SuspectAfter+1)
	if c.SyncInterval <= 0 {
		c.SyncInterval = DefaultSyncInterval
	}
}

// ErrNoPeers is returned by Propagate when no rendezvous or clients are
// connected, meaning the message reached nobody.
var ErrNoPeers = errors.New("rendezvous: no connected peers")

// ErrAllSendsFailed is returned by Propagate when peers were connected
// but every send to them failed: the message reached nobody, and unlike
// ErrNoPeers the mesh thinks it exists — a partition or mass failure.
var ErrAllSendsFailed = errors.New("rendezvous: all sends failed")

// Service is one peer's rendezvous protocol instance, for every group
// the peer is in.
type Service struct {
	ep    Endpoint
	cfg   Config // normalised by New
	hops  *hopFilter
	stats rdvCounters

	// out holds the streams this peer injects, one per group
	// (*outStream), drawn at the group's first message (Number).
	out sync.Map

	// logs is the log server: nil unless the peer is a rendezvous with
	// an event log.
	logs *logServer

	// mu guards the control core — the lease tables, the seed client's
	// state and the failure detector — and the listener maps.
	mu   sync.Mutex
	c    *core
	conn *sync.Cond // signals lease and seed-failure changes
	// order holds a join, a leave or a tick from its step to its last
	// send, so the connects that carry the peer's set leave in turn.
	order sync.Mutex

	// fan is the fan-out's targets, which the per-frame path reads
	// without s.mu: the driver marks them stale after a step that may
	// move them (step), and the next fan-out publishes them anew
	// (publishTargets). watched is the detector's size after the last
	// step: a fan-out whose sends all arrived steps the core only when
	// it is not 0 (settle).
	fan     atomic.Pointer[targetLists]
	stale   atomic.Bool
	watched atomic.Int64

	// leaseFns hear of every new lease epoch: lazily allocated, under
	// mu, keyed by the token AddLeaseListener returned.
	leaseFns  map[int]LeaseListener
	nextToken int

	// rmu guards readers, each group's one reader, which every received
	// frame of the group looks up: the per-message path takes no lock of
	// the control core's. Close empties it for good (nil).
	rmu     sync.RWMutex
	readers map[string]Reader

	wg   sync.WaitGroup
	stop chan struct{}
}

// addListener registers fn in *fns, which it makes on first use, under
// a token of its own.
func addListener[F any](s *Service, fns *map[int]F, fn F) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if *fns == nil {
		*fns = make(map[int]F, 1)
	}
	s.nextToken++
	(*fns)[s.nextToken] = fn
	return s.nextToken
}

// removeListener drops the listener of *fns registered under token.
func removeListener[F any](s *Service, fns *map[int]F, token int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(*fns, token)
}

// New creates and starts the peer's rendezvous service: it registers the
// protocol handler, for every group, and starts the loops its parts need
// — lease maintenance and suspect probing, anti-entropy sync. An edge
// leases nothing until it joins a group; a rendezvous leases "" with its
// seeds from the start.
func New(ep Endpoint, cfg Config) (*Service, error) {
	if cfg.Role != RoleEdge && cfg.Role != RoleRendezvous {
		return nil, fmt.Errorf("rendezvous: invalid role %d", cfg.Role)
	}
	cfg.normalise()
	s := &Service{
		ep:      ep,
		cfg:     cfg,
		hops:    newHopFilter(cfg.tickInterval()),
		readers: make(map[string]Reader),
		stop:    make(chan struct{}),
	}
	s.c = newCore(&s.cfg, rand.Uint64())
	s.stale.Store(true)
	s.conn = sync.NewCond(&s.mu)
	if cfg.Role == RoleRendezvous && cfg.Log != nil {
		s.logs = newLogServer(s)
	}
	if err := ep.RegisterHandler(ServiceName, "", s.handle); err != nil {
		return nil, fmt.Errorf("rendezvous: register handler: %w", err)
	}
	// Seeded peers maintain leases; rendezvous additionally probe their
	// suspects even when they have no seeds of their own.
	if len(cfg.Seeds) > 0 || cfg.Role == RoleRendezvous {
		s.wg.Add(1)
		go s.maintainLoop()
	}
	if s.logs != nil && len(cfg.ReplicaSeeds) > 0 {
		s.wg.Add(1)
		go s.logs.syncLoop()
	}
	return s, nil
}

// Config returns the service's configuration with every default filled
// in. The engine's replay loop reads ActiveStandby from it to decide
// whether foreign-origin cursors are worth presenting (only a failover
// client ever re-homes to a replica serving a dead origin's copy), and
// readiness checks read Seeds: unseeded peers never hold leases and rely
// on loopback only.
func (s *Service) Config() Config { return s.cfg }

func (s *Service) now() time.Time { return s.cfg.Clock() }

// Close stops lease maintenance, tells our seeds we are leaving,
// unregisters the handler and drops the groups' readers.
func (s *Service) Close() {
	s.mu.Lock()
	if s.c.closed {
		s.mu.Unlock()
		return
	}
	outs := s.step(s.now(), input{kind: inClose}, nil)
	s.mu.Unlock()
	close(s.stop)
	s.wg.Wait()
	perform(outs, s.send, nil, nil)
	s.ep.UnregisterHandler(ServiceName, "")
	s.rmu.Lock()
	s.readers = nil
	s.rmu.Unlock()
}

// newOp starts a control message of this peer carrying the op element,
// with room for the extra elements the caller is about to append.
func (s *Service) newOp(op string, extra int) *message.Message {
	m := message.New(s.ep.PeerID())
	m.Grow(1 + extra)
	m.AddString(elemNS, elemOp, op)
	return m
}

// sendCounted sends a control message that belongs to no group and
// counts a transport rejection as a send failure.
func (s *Service) sendCounted(to endpoint.Address, m *message.Message) error {
	err := s.ep.Send(to, ServiceName, "", m)
	if err != nil {
		s.stats.sendFailures.Add(1)
	}
	return err
}

// handle processes rendezvous protocol frames. Replay and sync ops
// are served by the log server; a peer without one drops them.
func (s *Service) handle(v message.View, from endpoint.Address) {
	var in input
	switch op := v.Text(elemNS, elemOp); op {
	case opConnect, opLease:
		var okSet, okSeed, okEpoch bool
		// A connect's set outlives the frame in the clients table: one
		// copy of the element holds every name. A grant's covers only
		// groups the peer already holds.
		set := v.Text(elemNS, elemGroups)
		if op == opConnect {
			set = strings.Clone(set)
		}
		in.groups, okSet = parseSet(set)
		in.seed, okSeed = v.Uint64(elemNS, elemSeed)
		in.epoch, okEpoch = v.Uint64(elemNS, elemEpoch)
		in.lease, _ = v.Uint64(elemNS, elemLease) // 0 when absent or malformed
		switch {
		case !okSet || !okSeed || !okEpoch:
		case op == opConnect:
			in.kind = inConnect
		case in.lease > 0:
			in.kind = inGrant
		}
	case opDisconnect:
		in.kind = inDisconnect
	case opPong:
		// The suspect is alive.
		in.kind = inPong
	case opProp:
		s.handleProp(&v, from)
	case opPing:
		// Any role answers: probing works edge→rendezvous and
		// rendezvous→client alike.
		_ = s.ep.Send(from, ServiceName, "", s.newOp(opPong, 0))
	case opRange:
		s.handleRange(v.Message(), from)
	default:
		if serve := logOps[op]; serve != nil && s.logs != nil {
			serve(s.logs, v.Message(), from)
		}
	}
	if in.kind != 0 {
		in.from, in.src = from, v.Src()
		s.apply(s.now(), in)
	}
}

// appendSet appends the wire form of a sorted group set to b: each
// name, then a NUL byte, which no group name holds (Join).
func appendSet(b []byte, set []string) []byte {
	n := len(set)
	for _, g := range set {
		n += len(g)
	}
	b = slices.Grow(b, n)
	for _, g := range set {
		b = append(append(b, g...), 0)
	}
	return b
}

// maxGroups bounds a group set: a peer joins no more groups, and a
// connect or a grant naming more is dropped (parseSet). It bounds what
// one connect costs the rendezvous, which moves the peer in the fan-out
// list of each group of its old and new sets under s.mu.
const maxGroups = 1024

// parseSet reads a group set from its wire form; the names are pieces
// of s. A set that is empty, has more than maxGroups names, does not end
// its last one, is out of order or names a group twice is malformed.
func parseSet(s string) (set []string, ok bool) {
	if !strings.HasSuffix(s, "\x00") || strings.Count(s, "\x00") > maxGroups {
		return nil, false
	}
	set = strings.Split(s[:len(s)-1], "\x00")
	return set, slices.IsSorted(set) && len(slices.Compact(set)) == len(set)
}

// logOps are the ops the log server serves; a peer without one drops
// them.
var logOps = map[string]func(*logServer, *message.Message, endpoint.Address){
	opReplay: (*logServer).serve, opSyncPull: (*logServer).serve,
	opSyncDigest: (*logServer).handleSyncDigest, opSyncRec: (*logServer).handleSyncRec,
}

// tickInterval is the maintenance loop's period: a third of the lease
// TTL.
func (c *Config) tickInterval() time.Duration {
	if c.LeaseTTL < 3 {
		return time.Second
	}
	return c.LeaseTTL / 3
}

// maintainLoop ticks the core at a third of the TTL: it renews leases
// with the seed rendezvous (backing off per unreachable seed), probes
// suspect peers and expires lapsed leases. Each tick also ages the hop
// filter's streams.
func (s *Service) maintainLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.tickInterval())
	defer ticker.Stop()
	for {
		s.apply(s.now(), input{kind: inTick})
		s.hops.expire()
		select {
		case <-ticker.C:
		case <-s.stop:
			return
		}
	}
}
