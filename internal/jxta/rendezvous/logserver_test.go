package rendezvous_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tps-p2p/tps/internal/eventlog"
	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/message"
	"github.com/tps-p2p/tps/internal/jxta/rendezvous"
	"github.com/tps-p2p/tps/internal/jxta/rendezvous/recovery"
	"github.com/tps-p2p/tps/internal/jxta/rendezvous/replica"
	"github.com/tps-p2p/tps/internal/jxta/transport/memnet"
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
	if !peer.rdv.AwaitConnected("net", 5*time.Second) {
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
			m.AddUint64("rdv", "Max", 64)
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

// sentFrames is a transport that keeps a copy of every frame sent
// through it.
type sentFrames struct {
	endpoint.Transport
	mu     sync.Mutex
	frames [][]byte
}

func (s *sentFrames) Send(to endpoint.Address, frame []byte) error {
	s.mu.Lock()
	s.frames = append(s.frames, bytes.Clone(frame))
	s.mu.Unlock()
	return s.Transport.Send(to, frame)
}

// TestDurableFanOutSendsTheStoredFrame: the frame a durable rendezvous
// stores under a sequence number is, byte for byte, the frame it sends
// its clients for that message — so a replay resends what a live
// subscriber got — and the rendezvous encoded it once, not once for the
// log and once for the fan-out. That holds for a message the rendezvous
// forwards, which carries its destination and the publisher's envelope
// as elements, and for one it publishes itself, which Propagate takes
// and writes the rdv envelope into, with the wire:ID field the caller
// hands down beside it: either way the stored frame says where a
// replayed message is to go.
func TestDurableFanOutSendsTheStoredFrame(t *testing.T) {
	c := newCluster(t)
	log, err := eventlog.Open(eventlog.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = log.Close() })
	tap := &sentFrames{}
	c.wrap = func(tr endpoint.Transport) endpoint.Transport { tap.Transport = tr; return tap }
	r := c.addService("rdv", 1, rendezvous.Config{Role: rendezvous.RoleRendezvous, Log: log})
	pub := c.addPeer("pub", 2, rendezvous.RoleEdge, "mem://rdv")
	sub := c.addPeer("sub", 3, rendezvous.RoleEdge, "mem://rdv")
	for _, p := range []*testPeer{pub, sub} {
		if !p.rdv.AwaitConnected("net", 5*time.Second) {
			t.Fatalf("%s never connected", p.name)
		}
	}
	sink := subscribe(t, sub, "net")
	encodes := func() int64 { return r.ep.Snapshot().Hists["encode_us"].Count }
	pipe := message.Field{Namespace: "wire", Name: "ID", Value: "\x03a pipe's seventeen"}

	const n, own = 40, 5
	before := encodes()
	for i := 0; i < n+own; i++ {
		from := pub
		if i >= n {
			from = r // the last few are the rendezvous' own
		}
		m := message.New(from.ep.PeerID())
		m.AddUint64("app", "n", uint64(i))
		if err := from.rdv.Propagate(m, "app.events", "net", pipe); err != nil {
			t.Fatal(err)
		}
		if m.Text("rdv", "DSvc") != "app.events" || len(m.Path) != 1 {
			t.Fatalf("Propagate did not stamp the message it took: %v, path %v", m.Elements(), m.Path)
		}
	}
	waitFor(t, func() bool { return sink.count() == n+own })
	// A lease renewal may fall into the window: each costs the rendezvous
	// one encode, the grant. Two encodes a message would be n more.
	if got := encodes() - before; got < n+own || got > n+own+4 {
		t.Fatalf("%d messages logged and sent with %d encodes, want one each", n+own, got)
	}

	sent := make(map[uint64][]byte, n+own)
	tap.mu.Lock()
	for _, frame := range tap.frames {
		v, err := message.NewView(frame)
		if err != nil {
			t.Fatal(err)
		}
		if _, seq, ok := rendezvous.ReplayInfo(&v); ok {
			// A forwarded message leaves once, for the subscriber; the
			// rendezvous' own once for each of its two clients.
			if sent[seq] != nil && (v.Src() != r.ep.PeerID() || !bytes.Equal(sent[seq], frame)) {
				t.Fatalf("sequence %d left twice, or as two different frames", seq)
			}
			sent[seq] = frame
		}
	}
	tap.mu.Unlock()
	stored := 0
	err = log.Read("net", 0, 0, func(e eventlog.Entry) error {
		stored++
		if !bytes.Equal(e.Payload, sent[e.Seq]) {
			t.Errorf("sequence %d: stored frame differs from the frame sent\nstored %x\n  sent %x", e.Seq, e.Payload, sent[e.Seq])
		}
		m, err := message.Unmarshal(e.Payload)
		if err != nil {
			t.Fatalf("sequence %d: stored frame does not decode: %v", e.Seq, err)
		}
		for name, want := range map[string]string{"Op": "prop", "DSvc": "app.events", "DParam": "net"} {
			if got := m.Text("rdv", name); got != want {
				t.Errorf("sequence %d: stored frame has rdv:%s = %q, want %q", e.Seq, name, got, want)
			}
		}
		if got := m.Text("wire", "ID"); got != pipe.Value {
			t.Errorf("sequence %d: stored frame has wire:ID = %q, want %q", e.Seq, got, pipe.Value)
		}
		return nil
	})
	if err != nil || stored != n+own || len(sent) != n+own {
		t.Fatalf("%d stored, %d sent, want %d of each (%v)", stored, len(sent), n+own, err)
	}
}

// replayInfo reads the log stamps of a delivered message the way a hop
// reads them, through the view of its frame.
func replayInfo(m *message.Message) (origin jid.ID, seq uint64, ok bool) {
	frame, err := m.Marshal()
	if err != nil {
		return jid.Nil, 0, false
	}
	v, err := message.NewView(frame)
	if err != nil {
		return jid.Nil, 0, false
	}
	return rendezvous.ReplayInfo(&v)
}

// goldenEventFrames reads package message's golden file of PR 22: the
// frame a publisher of that commit sent for one event, and the frame a
// durable rendezvous stored for it.
func goldenEventFrames(t *testing.T) (published, stored []byte) {
	t.Helper()
	raw, err := os.ReadFile("../message/testdata/event_frame_pr22.bin")
	if err != nil {
		t.Fatal(err)
	}
	n := binary.BigEndian.Uint32(raw)
	return raw[4 : 4+n], raw[4+n+4:]
}

// TestLogWrittenByThePreviousEncoderIsReplayed starts a durable
// rendezvous on a log holding frames the encoders of PR 21 and PR 22
// wrote (the golden frames of package message: stored fan-out frames of
// this topic, the first addressed to app.events, the second an event
// sent on a wire pipe). A late joiner's replay request is served from it
// and the group's reader on the joiner reads the events, in the order of
// their log sequences: segments on disk survive the upgrade. Then a
// publisher that has not been upgraded sends its frame: it is routed,
// logged as the next sequence and delivered.
func TestLogWrittenByThePreviousEncoderIsReplayed(t *testing.T) {
	frame, err := os.ReadFile("../message/testdata/durable_frame_pr21.bin")
	if err != nil {
		t.Fatal(err)
	}
	published, stored := goldenEventFrames(t)
	c := newCluster(t)
	log, err := eventlog.Open(eventlog.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = log.Close() })
	for i, f := range [][]byte{frame, stored} {
		if err := log.AppendExact("net", uint64(i+1), time.Now().UnixMilli(), f); err != nil {
			t.Fatal(err)
		}
	}
	r := c.addService("rdv", 1, rendezvous.Config{Role: rendezvous.RoleRendezvous, Log: log})
	joiner := c.addPeer("joiner", 3, rendezvous.RoleEdge, "mem://rdv")
	sink := subscribe(t, joiner, "net")
	if !joiner.rdv.AwaitConnected("net", 5*time.Second) {
		t.Fatal("joiner never connected")
	}
	if err := joiner.rdv.RequestReplay(r.ep.PeerID(), "net", jid.Nil, 0, recovery.W); err != nil {
		t.Fatal(err)
	}
	// The log server sends a window in log order over one link, which
	// keeps it: the first frame read is sequence 1, the second 2.
	got, second := sink.waitOne(t), sink.waitOne(t)
	origin, seq, ok := replayInfo(got)
	if !ok || origin != r.ep.PeerID() || seq != 1 {
		t.Fatalf("replayed as (%v, %d, %v), want sequence 1 of the rendezvous", origin, seq, ok)
	}
	if got.Text("tps", "Data") != "payload written by the encoder of commit 7474381" || got.Text("tps", "Path") != "/ski/rental" {
		t.Fatalf("replayed event reads %v", got.Elements())
	}
	pipe := jid.FromSeed(jid.KindPipe, 42)
	isEvent := func(m *message.Message, wantSeq uint64) {
		t.Helper()
		origin, seq, ok := replayInfo(m)
		if !ok || origin != r.ep.PeerID() || seq != wantSeq {
			t.Fatalf("arrived as (%v, %d, %v), want sequence %d of the rendezvous", origin, seq, ok, wantSeq)
		}
		if id, err := m.GetID("wire", "ID"); err != nil || id != pipe {
			t.Fatalf("wire:ID reads %v (%v), want %v", id, err, pipe)
		}
		if m.Text("tps", "Data") != "payload written by the encoder of commit 11e23a6" || m.Text("tps", "Codec") != "gob" {
			t.Fatalf("event reads %v", m.Elements())
		}
	}
	// Replayed verbatim: the frame still says the sequence it was stored
	// under by the rendezvous that wrote it.
	isEvent(second, 1)

	// The same event's frame as its publisher sent it, off the transport
	// of a peer holding a lease: a new message to the rendezvous' cache
	// (the replay went to the joiner's), so it is forwarded and logged.
	old, err := c.net.AddNode("pub")
	if err != nil {
		t.Fatal(err)
	}
	if err := memnet.New(old).Send("mem://rdv", published); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { _, last, ok := log.Range("net"); return ok && last == 3 })
	// The joiner has seen this message ID, in the replay: its cache drops
	// the live copy. A subscriber that has not gets it.
	fresh := c.addPeer("fresh", 4, rendezvous.RoleEdge, "mem://rdv")
	freshSink := subscribe(t, fresh, "net")
	if !fresh.rdv.AwaitConnected("net", 5*time.Second) {
		t.Fatal("second subscriber never connected")
	}
	if err := fresh.rdv.RequestReplay(r.ep.PeerID(), "net", jid.Nil, 2, recovery.W); err != nil {
		t.Fatal(err)
	}
	isEvent(freshSink.waitOne(t), 3)
}

// replayRig is a durable rendezvous whose log retains depth propagated
// messages, and a late joiner whose reader of group "net" the rig is: it
// records when each replayed message reaches the joiner and under which
// log sequence, and the range signals the joiner receives.
type replayRig struct {
	c      *cluster
	log    *eventlog.Log
	rdv    *testPeer
	joiner *testPeer

	mu       sync.Mutex
	arrived  []time.Time
	seqs     []uint64
	answered []rendezvous.Range
}

func newReplayRig(t *testing.T, depth int) *replayRig {
	t.Helper()
	r := &replayRig{c: newCluster(t)}
	var err error
	if r.log, err = eventlog.Open(eventlog.Config{Dir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.log.Close() })
	r.rdv = r.c.addService("rdv", 1, rendezvous.Config{Role: rendezvous.RoleRendezvous, Log: r.log})
	pub := r.c.addPeer("pub", 2, rendezvous.RoleEdge, "mem://rdv")
	if !pub.rdv.AwaitConnected("net", 5*time.Second) {
		t.Fatal("publisher never connected")
	}
	for i := 0; i < depth; i++ {
		m := message.New(pub.ep.PeerID())
		m.AddUint64("app", "n", uint64(i))
		if err := pub.rdv.Propagate(m, "app.events", "net"); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { _, last, ok := r.log.Range("net"); return ok && last == uint64(depth) })

	r.joiner = r.c.addPeer("joiner", 3, rendezvous.RoleEdge, "mem://rdv")
	if err := r.joiner.rdv.Read("net", r); err != nil {
		t.Fatal(err)
	}
	if !r.joiner.rdv.AwaitConnected("net", 5*time.Second) {
		t.Fatal("joiner never connected")
	}
	return r
}

// request asks the rendezvous for the first window of its own log.
func (r *replayRig) request(t *testing.T) { r.requestFrom(t, jid.Nil, 0, recovery.W) }

// requestFrom asks the rendezvous for max records of origin's stream
// after the cursor.
func (r *replayRig) requestFrom(t *testing.T, origin jid.ID, after, max uint64) {
	t.Helper()
	if err := r.joiner.rdv.RequestReplay(r.rdv.ep.PeerID(), "net", origin, after, max); err != nil {
		t.Fatal(err)
	}
}

func (r *replayRig) Deliver(v message.View, _ endpoint.Address) {
	_, seq, _ := rendezvous.ReplayInfo(&v)
	r.mu.Lock()
	r.arrived = append(r.arrived, time.Now())
	r.seqs = append(r.seqs, seq)
	r.mu.Unlock()
}

func (r *replayRig) Logged(jid.ID, uint64) {}

func (r *replayRig) Answered(rg rendezvous.Range) {
	r.mu.Lock()
	r.answered = append(r.answered, rg)
	r.mu.Unlock()
}

// ranges returns the range signals the joiner received in group "net".
func (r *replayRig) ranges() []rendezvous.Range {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.answered)
}

// contiguous is the cursor a subscriber would present: the highest log
// sequence below which nothing is missing. A lossy link punches holes
// into a replayed suffix, and a cursor past a hole would skip it forever.
func (r *replayRig) contiguous() (cur uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	have := make(map[uint64]bool, len(r.seqs))
	for _, seq := range r.seqs {
		have[seq] = true
	}
	for have[cur+1] {
		cur++
	}
	return cur
}

func (r *replayRig) arrivals() []time.Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]time.Time(nil), r.arrived...)
}

// TestReplayIsPacedAndYieldsTheLog asks a durable rendezvous for
// windows of its log: the requester's pulls pace the replay, one window
// a request. Each request is answered with a range signal naming what
// the log retains, then exactly the records of its window — a request
// for more than W gets W — read in one bounded read: the log hands out
// no record the answer does not send, so it is free again as soon as
// that one read returns.
func TestReplayIsPacedAndYieldsTheLog(t *testing.T) {
	const depth = 2*recovery.W + 10
	r := newReplayRig(t, depth)
	ranges := r.ranges
	self := r.rdv.ep.PeerID()
	read := func() int64 { return r.log.Snapshot().Counters["replayed"] }
	for i, tc := range []struct{ after, max, from, to uint64 }{
		{5, 7, 6, 12},
		{20, 10 * recovery.W, 21, 20 + recovery.W},
		{depth - 3, recovery.W, depth - 2, depth},
	} {
		before, arrived := read(), len(r.arrivals())
		r.requestFrom(t, jid.Nil, tc.after, tc.max)
		want := int(tc.to - tc.from + 1)
		waitFor(t, func() bool { return len(r.arrivals()) >= arrived+want && len(ranges()) == i+1 })
		r.c.net.WaitQuiesce(5 * time.Second)
		r.mu.Lock()
		seqs := slices.Clone(r.seqs[arrived:])
		r.mu.Unlock()
		slices.Sort(seqs)
		if len(seqs) != want || seqs[0] != tc.from || seqs[len(seqs)-1] != tc.to {
			t.Fatalf("a request for %d after %d was answered with %d records, %d..%d; want %d..%d",
				tc.max, tc.after, len(seqs), seqs[0], seqs[len(seqs)-1], tc.from, tc.to)
		}
		if n := read() - before; n != int64(want) {
			t.Fatalf("the log handed out %d records to answer with %d", n, want)
		}
		if rg := ranges()[i]; rg != (rendezvous.Range{RDV: self, Origin: self, First: 1, Last: depth}) {
			t.Fatalf("range signal %+v, want the log's 1..%d", rg, depth)
		}
	}
}

// TestReplayStopsWhenTheServiceCloses closes the rendezvous service
// after it has answered one window of a long log: a request that comes
// afterwards gets no range signal and no record.
func TestReplayStopsWhenTheServiceCloses(t *testing.T) {
	const depth = 2 * recovery.W
	r := newReplayRig(t, depth)
	ranges := r.ranges
	r.requestFrom(t, jid.Nil, 0, recovery.W)
	waitFor(t, func() bool { return len(r.arrivals()) >= recovery.W && len(ranges()) == 1 })
	r.c.net.WaitQuiesce(5 * time.Second)
	served := r.rdv.rdv.Snapshot().Counters["replay_served"]
	arrived := len(r.arrivals())
	r.rdv.rdv.Close()
	r.requestFrom(t, jid.Nil, recovery.W, recovery.W)
	r.c.net.WaitQuiesce(5 * time.Second)
	if n, got := len(ranges()), r.rdv.rdv.Snapshot().Counters["replay_served"]; n != 1 || got != served {
		t.Fatalf("a closed service answered: %d range signals, replay_served %d → %d", n, served, got)
	}
	if n := len(r.arrivals()); n != arrived {
		t.Fatalf("a closed service replayed %d more records", n-arrived)
	}
}

// TestReplayDoesNotHoldTheReceivePath: a joiner is pulling a log ten
// windows deep, a window at a time, when a third peer publishes. The
// rendezvous must forward that event at once, not when the replay is
// over: a request is answered on the goroutine that delivered it — here
// the rendezvous node's one dispatcher — and every frame that arrives
// meanwhile waits behind the answer, so an answer is one window, never
// the whole log.
func TestReplayDoesNotHoldTheReceivePath(t *testing.T) {
	const depth = 10 * recovery.W
	r := newReplayRig(t, depth)
	third := r.c.addPeer("third", 4, rendezvous.RoleEdge, "mem://rdv")
	if !third.rdv.AwaitConnected("net", 5*time.Second) {
		t.Fatal("third peer never connected")
	}
	// The joiner pulls the way an engine does: the next window once its
	// cursor is half-way through the last.
	stop, pulled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(pulled)
		for asked := uint64(0); asked < depth; {
			if r.contiguous()+recovery.W/2 >= asked {
				if err := r.joiner.rdv.RequestReplay(r.rdv.ep.PeerID(), "net", jid.Nil, asked, recovery.W); err != nil {
					t.Error(err)
					return
				}
				asked += recovery.W
			}
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	defer func() { close(stop); <-pulled }()
	waitFor(t, func() bool { return len(r.arrivals()) > 0 })
	m := message.New(third.ep.PeerID())
	m.AddString("app", "live", "sent during the replay")
	if err := third.rdv.Propagate(m, "app.events", "net"); err != nil {
		t.Fatal(err)
	}
	// The rendezvous logs the live event after the retained ones, so it
	// reaches the joiner numbered depth+1.
	live := func() int {
		r.mu.Lock()
		defer r.mu.Unlock()
		return slices.Index(r.seqs, depth+1)
	}
	waitFor(t, func() bool { return live() >= 0 })
	if before := live(); before > depth/2 {
		t.Fatalf("the live event arrived after %d of %d replayed frames, want before half", before, depth)
	}
	waitFor(t, func() bool { return r.contiguous() == depth+1 })
}

// TestRedundantReplayIsAbsorbed asks for the whole log twice. The second
// answer is redelivered at the wire; the hop filter must absorb every
// frame of it.
func TestRedundantReplayIsAbsorbed(t *testing.T) {
	const n = 20
	r := newReplayRig(t, n)
	r.request(t)
	waitFor(t, func() bool { return len(r.arrivals()) == n })
	r.request(t)
	waitFor(t, func() bool { return r.joiner.rdv.Snapshot().Counters["duplicates"] == n })
	r.c.net.WaitQuiesce(5 * time.Second)
	if got := len(r.arrivals()); got != n {
		t.Fatalf("%d messages delivered after a redundant replay, want %d", got, n)
	}
}

// TestForeignCursorAtANonReplicaServesNothing: a subscriber that re-homed
// here from a dead rendezvous also holds a cursor counted by that
// rendezvous's log. This one is no replica of it, so the foreign
// numbering means nothing here: serve nothing, and answer that nothing
// of it is retained, which is no gap. The self-origin request is what
// catches the subscriber up.
func TestForeignCursorAtANonReplicaServesNothing(t *testing.T) {
	const n = 12
	r := newReplayRig(t, n)
	ranges := r.ranges
	foreign := jid.FromSeed(jid.KindPeer, 4242)
	r.requestFrom(t, foreign, 3, recovery.W)
	r.c.net.WaitQuiesce(5 * time.Second)
	self := r.rdv.ep.PeerID()
	want := []rendezvous.Range{{RDV: self, Origin: foreign}}
	if served := r.rdv.rdv.Snapshot().Counters["replay_served"]; len(r.arrivals()) != 0 || !slices.Equal(ranges(), want) || served != 0 {
		t.Fatalf("foreign-origin cursor at a non-replica: delivered %d, answered %+v, served %d; want nothing, and %+v",
			len(r.arrivals()), ranges(), served, want)
	}
	r.request(t)
	waitFor(t, func() bool { return len(r.arrivals()) == n })
}

// TestGapForAnUnheldOriginNamesThatOrigin: a replica-set member that
// holds nothing of the origin a cursor names answers with an unbounded
// gap — attributed to that origin, not to itself, so that the requester
// moves the right cursor — and, having never synced, marks it tentative.
// (The engine's side of it is chaos.TestDoubleKillSurfacesReplayGap; a
// ReplayGapError does not carry the origin.)
func TestGapForAnUnheldOriginNamesThatOrigin(t *testing.T) {
	c := newCluster(t)
	log, err := eventlog.Open(eventlog.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = log.Close() })
	standby := c.addService("standby", 1, rendezvous.Config{
		Role:         rendezvous.RoleRendezvous,
		Log:          log,
		ReplicaSeeds: []endpoint.Address{"mem://primary"}, // dead before it ever synced
		SyncInterval: time.Hour,
	})
	sub := c.addPeer("sub", 2, rendezvous.RoleEdge, "mem://standby")
	if !sub.rdv.AwaitConnected("net", 5*time.Second) {
		t.Fatal("subscriber never connected")
	}
	l := subscribe(t, sub, "net")
	primary := jid.FromSeed(jid.KindPeer, 7)
	if err := sub.rdv.RequestReplay(standby.ep.PeerID(), "net", primary, 8, recovery.W); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(l.answers()) > 0 })
	if g, want := l.answers()[0], (rendezvous.Range{RDV: standby.ep.PeerID(), Origin: primary, Gap: true, Tentative: true}); g != want {
		t.Fatalf("gap %+v, want %+v", g, want)
	}
}

// TestEveryGapListenerHearsAGapUntilRemoved: a service that serves
// several groups has a reader per group. A range signal reaches the
// reader of its group and no other; once a reader is removed, the next
// signal of its group reaches nobody.
func TestEveryGapListenerHearsAGapUntilRemoved(t *testing.T) {
	c := newCluster(t)
	log, err := eventlog.Open(eventlog.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = log.Close() })
	standby := c.addService("standby", 1, rendezvous.Config{
		Role:         rendezvous.RoleRendezvous,
		Log:          log,
		ReplicaSeeds: []endpoint.Address{"mem://primary"},
		SyncInterval: time.Hour,
	})
	sub := c.addPeer("sub", 2, rendezvous.RoleEdge, "mem://standby")
	sub.rdv.Join("other")
	if !sub.rdv.AwaitConnected("net", 5*time.Second) || !sub.rdv.AwaitConnected("other", 5*time.Second) {
		t.Fatal("subscriber never connected")
	}
	a, b := subscribe(t, sub, "net"), subscribe(t, sub, "other")
	gap := func(group string) {
		t.Helper()
		if err := sub.rdv.RequestReplay(standby.ep.PeerID(), group, jid.FromSeed(jid.KindPeer, 7), 8, recovery.W); err != nil {
			t.Fatal(err)
		}
	}
	gap("net")
	gap("other")
	waitFor(t, func() bool { return len(a.answers()) == 1 && len(b.answers()) == 1 })
	if err := sub.rdv.Read("net", nil); err != nil {
		t.Fatal(err)
	}
	gap("net")
	gap("other")
	waitFor(t, func() bool { return len(b.answers()) == 2 })
	c.net.WaitQuiesce(5 * time.Second)
	if n := len(a.answers()); n != 1 {
		t.Fatalf("a removed reader heard %d gaps, want the 1 before its removal", n)
	}
}

// TestNetGroupIsNeverLogged: one durable rendezvous carries the net
// group's discovery traffic beside every event group's. It forwards
// both, and logs the event group alone: queries and advertisements are
// neither events nor worth replaying.
func TestNetGroupIsNeverLogged(t *testing.T) {
	c := newCluster(t)
	log, err := eventlog.Open(eventlog.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = log.Close() })
	c.addService("rdv", 1, rendezvous.Config{Role: rendezvous.RoleRendezvous, Log: log})
	netGroup := jid.NetGroup.String()
	pub := c.addPeer("pub", 2, rendezvous.RoleEdge, "mem://rdv")
	sub := c.addPeer("sub", 3, rendezvous.RoleEdge, "mem://rdv")
	for _, p := range []*testPeer{pub, sub} {
		p.rdv.Join(netGroup)
		if !p.rdv.AwaitConnected(netGroup, 5*time.Second) {
			t.Fatalf("%s never leased the net group", p.name)
		}
	}
	queries := subscribe(t, sub, netGroup)
	if err := pub.rdv.Propagate(message.New(pub.ep.PeerID()), "app.queries", netGroup); err != nil {
		t.Fatal(err)
	}
	if err := pub.rdv.Propagate(message.New(pub.ep.PeerID()), "app.events", "net"); err != nil {
		t.Fatal(err)
	}
	queries.waitOne(t)
	waitFor(t, func() bool { _, last, ok := log.Range("net"); return ok && last == 1 })
	if _, _, ok := log.Range(netGroup); ok {
		t.Fatal("the rendezvous logged the net group")
	}
}

// sentOps is a hand-fed transport that counts the frames sent through
// it that are not control ops of the log protocol: the records a log
// server answers with.
type sentOps struct {
	handFed
	records atomic.Int64
}

func (s *sentOps) Send(_ endpoint.Address, frame []byte) error {
	if v, err := message.NewView(frame); err != nil || !slices.Contains([]string{"range", "syncpull", "syncdig"}, v.Text("rdv", "Op")) {
		s.records.Add(1)
	}
	return nil
}

// FuzzLogOps feeds replay, range, syncdig, syncpull and syncrec frames
// with any Topic, LogSrc, Cursor, Max, Seq, TimeMS, First, Frame and
// SyncDigest bytes, in the stream's group or in none, to a durable,
// replicating rendezvous, once from its configured replica seed and
// once from a stranger. No frame may panic; the rendezvous' own log is
// never written; a copy of another origin's log is written only by a
// syncrec from the seed whose Topic is set, whose LogSrc is a wire ID,
// whose Seq (not zero), TimeMS and First are 8 bytes each and whose
// Frame is not empty; and no request is answered with more than
// recovery.W records.
func FuzzLogOps(f *testing.F) {
	self, origin := jid.FromSeed(jid.KindPeer, 1), jid.FromSeed(jid.KindPeer, 2)
	u64 := func(v uint64) []byte { return binary.BigEndian.AppendUint64(nil, v) }
	selfWire, originWire := self.AppendWire(nil), origin.AppendWire(nil)
	const own, copied = 2*recovery.W + 5, recovery.W + 10
	ahead := replica.EncodeDigest([]replica.TopicDigest{{Origin: origin, Topic: "g", Last: copied + 500}})
	for _, op := range []string{"replay", "syncpull"} {
		f.Add(op, true, "g", selfWire, u64(0), u64(1000), []byte{}, []byte{}, []byte{}, []byte{}, []byte{})
		f.Add(op, false, "g", originWire, u64(5), u64(recovery.W), []byte{}, []byte{}, []byte{}, []byte{}, []byte{})
		f.Add(op, true, "g", selfWire, u64(own+7), u64(3), []byte{}, []byte{}, []byte{}, []byte{}, []byte{})
	}
	f.Add("range", false, "g", originWire, u64(copied), u64(recovery.W), []byte{}, []byte{}, u64(1), []byte{}, []byte{})
	f.Add("range", true, "g", originWire, u64(copied), u64(recovery.W), []byte{}, []byte{}, u64(1), []byte{}, []byte{})
	f.Add("syncrec", false, "g", originWire, []byte{}, []byte{}, u64(copied+1), u64(7), u64(1), []byte("frame"), []byte{})
	f.Add("syncrec", false, "g", selfWire, []byte{}, []byte{}, u64(own+1), u64(7), u64(1), []byte("frame"), []byte{})
	f.Add("syncrec", false, "g", originWire, []byte{}, []byte{}, u64(copied+900), u64(7), u64(copied+900), []byte("frame"), []byte{})
	f.Add("syncdig", false, "", []byte{}, []byte{}, []byte{}, []byte{}, []byte{}, []byte{}, []byte{}, ahead)

	log, err := eventlog.Open(eventlog.Config{Dir: f.TempDir()})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = log.Close() })
	for seq := uint64(1); seq <= own; seq++ {
		if err := log.AppendExact("g", seq, 1, []byte(fmt.Sprint("own ", seq))); err != nil {
			f.Fatal(err)
		}
	}
	for seq := uint64(1); seq <= copied; seq++ {
		if err := log.AppendExact(replica.TopicKey(origin, "g"), seq, 1, []byte(fmt.Sprint("copy ", seq))); err != nil {
			f.Fatal(err)
		}
	}
	tr := &sentOps{handFed: handFed{addr: "hand://self"}}
	ep := endpoint.New(self)
	if err := ep.AddTransport(tr); err != nil {
		f.Fatal(err)
	}
	start := time.Now()
	svc, err := rendezvous.New(ep, rendezvous.Config{Role: rendezvous.RoleRendezvous, Log: log, LeaseTTL: time.Minute,
		ReplicaSeeds: []endpoint.Address{"hand://seed"}, SyncInterval: time.Hour, Clock: func() time.Time { return start }})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		svc.Close()
		_ = ep.Close()
	})
	// held lists the streams of the log, the own ones or the copies, with
	// their ranges: a write appends, or resets a copy to start past its
	// old end.
	held := func(copies bool) string {
		var b strings.Builder
		for _, key := range log.Topics() {
			if strings.HasPrefix(key, "r|") == copies {
				first, last, _ := log.Range(key)
				fmt.Fprintln(&b, key, first, last)
			}
		}
		return b.String()
	}
	f.Fuzz(func(t *testing.T, op string, inGroup bool, topic string, logSrc, cursor, max, seq, timeMS, first, frame, digest []byte) {
		group := ""
		if inGroup {
			group = topic
		}
		build := func(m *message.Message) {
			if topic != "" {
				m.AddString("rdv", "Topic", topic)
			}
			for _, e := range []struct {
				name string
				data []byte
			}{{"LogSrc", logSrc}, {"Cursor", cursor}, {"Max", max}, {"Seq", seq}, {"TimeMS", timeMS}, {"First", first}, {"Frame", frame}, {"SyncDigest", digest}} {
				if len(e.data) > 0 {
					m.AddBytes("rdv", e.name, e.data)
				}
			}
		}
		var kind byte
		var id [16]byte
		if len(logSrc) == jid.WireSize {
			kind = logSrc[0]
			copy(id[:], logSrc[1:])
		}
		_, idErr := jid.FromWire(kind, id)
		wellFormed := op == "syncrec" && topic != "" && len(logSrc) == jid.WireSize && idErr == nil &&
			len(seq) == 8 && binary.BigEndian.Uint64(seq) != 0 && len(timeMS) == 8 && len(first) == 8 && len(frame) > 0
		for _, from := range []endpoint.Address{"hand://stranger", "hand://seed"} {
			fed := opFrame(t, jid.FromSeed(jid.KindPeer, 3), from, group, op, build)
			ownBefore, copiesBefore := held(false), held(true)
			tr.records.Store(0)
			tr.recv(fed)
			if held(false) != ownBefore {
				t.Fatalf("a %q op from %s wrote the rendezvous' own log", op, from)
			}
			if held(true) != copiesBefore && !(wellFormed && from == "hand://seed") {
				t.Fatalf("a %q op from %s, LogSrc %x, Seq %x, TimeMS %x, First %x, Frame %q, wrote a copy", op, from, logSrc, seq, timeMS, first, frame)
			}
			if n := tr.records.Load(); n > recovery.W {
				t.Fatalf("a %q op from %s, Cursor %x and Max %x, was answered with %d records", op, from, cursor, max, n)
			}
		}
	})
}
