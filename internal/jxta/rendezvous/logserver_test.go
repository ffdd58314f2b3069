package rendezvous_test

import (
	"reflect"
	"testing"
	"time"

	"github.com/tps-p2p/tps/internal/eventlog"
	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/message"
	"github.com/tps-p2p/tps/internal/jxta/rendezvous"
)

// rawOp builds a rendezvous control message by hand, the way a peer
// that does not share this code base would: element names are the wire
// contract.
func rawOp(src jid.ID, op string, fill func(*message.Message)) *message.Message {
	m := message.New(src)
	m.AddString("rdv", "Op", op)
	fill(m)
	return m
}

// TestMalformedCursorIsDropped sends replay and pull requests whose
// numeric Cursor element is absent or not 8 bytes to a durable,
// replicating rendezvous. Each must be dropped: read as cursor 0 it
// would make the rendezvous stream its whole retained log to anyone who
// sends garbage. An explicit 8-byte zero remains the late joiner's
// request for everything.
func TestMalformedCursorIsDropped(t *testing.T) {
	c := newCluster(t)
	log, err := eventlog.Open(eventlog.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = log.Close() })
	r := c.addService("rdv", 1, rendezvous.Config{
		Role:         rendezvous.RoleRendezvous,
		Log:          log,
		ReplicaSeeds: []endpoint.Address{"mem://peer"},
		SyncInterval: time.Hour, // only the hand-built ops below
	})
	peer := c.addPeer("peer", 2, rendezvous.RoleEdge, "mem://rdv")
	if !peer.rdv.AwaitConnected(5 * time.Second) {
		t.Fatal("peer never connected")
	}
	const n = 3
	for i := 0; i < n; i++ {
		m := message.New(peer.ep.PeerID())
		m.AddBytes("app", "n", []byte{byte(i)})
		if err := peer.rdv.Propagate(m, "app.events", "net"); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { _, last, ok := log.Range("net"); return ok && last == n })

	send := func(op string, cursor []byte) {
		t.Helper()
		m := rawOp(peer.ep.PeerID(), op, func(m *message.Message) {
			m.AddString("rdv", "Topic", "net")
			m.AddID("rdv", "LogSrc", r.ep.PeerID())
			if cursor != nil {
				m.AddBytes("rdv", "Cursor", cursor)
			}
		})
		if err := peer.ep.Send("mem://rdv", rendezvous.ServiceName, "net", m); err != nil {
			t.Fatal(err)
		}
	}
	for _, op := range []string{"replay", "syncpull"} {
		for _, cursor := range [][]byte{nil, []byte("0"), make([]byte, 7), make([]byte, 9)} {
			send(op, cursor)
		}
	}
	c.net.WaitQuiesce(5 * time.Second)
	counters := r.rdv.Snapshot().Counters
	for _, k := range []string{"replay_served", "replay_gaps", "sync_pulls", "sync_records"} {
		if counters[k] != 0 {
			t.Fatalf("%s = %d after malformed requests only, want 0", k, counters[k])
		}
	}

	send("replay", make([]byte, 8))
	send("syncpull", make([]byte, 8))
	waitFor(t, func() bool {
		counters := r.rdv.Snapshot().Counters
		return counters["replay_served"] == n && counters["sync_records"] == n
	})
}

// TestLogOpsNeedALogServer sends every op the log server answers to the
// two kinds of service that have none — an edge peer and a rendezvous
// without an event log: no counter may move, not even sync_rejects,
// which is counted on a durable rendezvous only.
func TestLogOpsNeedALogServer(t *testing.T) {
	c := newCluster(t)
	targets := []*testPeer{
		c.addService("plain-rdv", 1, rendezvous.Config{Role: rendezvous.RoleRendezvous, ReplicaSeeds: []endpoint.Address{"mem://sender"}}),
		c.addService("edge", 2, rendezvous.Config{Role: rendezvous.RoleEdge}),
	}
	sender := c.addPeer("sender", 3, rendezvous.RoleEdge)
	origin := jid.FromSeed(jid.KindPeer, 9)
	for _, target := range targets {
		before := target.rdv.Snapshot().Counters
		for _, op := range []string{"replay", "syncdig", "syncpull", "syncrec"} {
			m := rawOp(sender.ep.PeerID(), op, func(m *message.Message) {
				m.AddString("rdv", "Topic", "net")
				m.AddID("rdv", "LogSrc", origin)
				m.AddUint64("rdv", "Cursor", 0)
				m.AddUint64("rdv", "Seq", 1)
				m.AddUint64("rdv", "TimeMS", 1)
				m.AddUint64("rdv", "First", 1)
				m.AddBytes("rdv", "Frame", []byte("frame"))
				m.AddBytes("rdv", "SyncDigest", nil)
			})
			addr := endpoint.MakeAddress("mem", target.name)
			if err := sender.ep.Send(addr, rendezvous.ServiceName, "net", m); err != nil {
				t.Fatal(err)
			}
		}
		c.net.WaitQuiesce(5 * time.Second)
		if after := target.rdv.Snapshot().Counters; !reflect.DeepEqual(before, after) {
			t.Fatalf("%s: log ops moved counters:\nbefore %v\nafter  %v", target.name, before, after)
		}
	}
}
