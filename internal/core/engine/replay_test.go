package engine

// replay_test.go unit-tests the contiguous replay cursor: the invariant
// that makes at-least-once redelivery converge is that the cursor never
// advances past an undelivered sequence, while gap signals may jump it
// over ranges retention has made unrecoverable.

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/tps-p2p/tps/internal/core/typereg"
	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/message"
	"github.com/tps-p2p/tps/internal/jxta/peer"
	"github.com/tps-p2p/tps/internal/jxta/rendezvous"
	"github.com/tps-p2p/tps/internal/jxta/transport/memnet"
	"github.com/tps-p2p/tps/internal/netsim"
)

func TestCursorAdvancesOnlyContiguously(t *testing.T) {
	a := &attachment{}
	origin := jid.FromSeed(jid.KindPeer, 1)

	a.noteCursor(origin, 1)
	a.noteCursor(origin, 2)
	if got := a.cursor(origin); got != 2 {
		t.Fatalf("cursor after 1,2 = %d, want 2", got)
	}
	// A hole: 3 is lost, 4..6 arrive. The cursor must hold at 2 so the
	// next replay round refetches 3 — advancing to max would skip it
	// forever.
	a.noteCursor(origin, 4)
	a.noteCursor(origin, 5)
	a.noteCursor(origin, 6)
	if got := a.cursor(origin); got != 2 {
		t.Fatalf("cursor with hole at 3 = %d, want 2", got)
	}
	// The hole fills: the cursor drains the pending run in one step.
	a.noteCursor(origin, 3)
	if got := a.cursor(origin); got != 6 {
		t.Fatalf("cursor after hole filled = %d, want 6", got)
	}
	// Duplicates and stale sequences are no-ops.
	a.noteCursor(origin, 4)
	a.noteCursor(origin, 6)
	if got := a.cursor(origin); got != 6 {
		t.Fatalf("cursor after duplicates = %d, want 6", got)
	}
}

func TestCursorPerOrigin(t *testing.T) {
	a := &attachment{}
	o1 := jid.FromSeed(jid.KindPeer, 1)
	o2 := jid.FromSeed(jid.KindPeer, 2)
	a.noteCursor(o1, 1)
	a.noteCursor(o1, 2)
	a.noteCursor(o2, 1)
	if a.cursor(o1) != 2 || a.cursor(o2) != 1 {
		t.Fatalf("cursors = (%d, %d), want (2, 1): origins must not share state",
			a.cursor(o1), a.cursor(o2))
	}
}

func TestJumpCursorSkipsRetentionGap(t *testing.T) {
	a := &attachment{}
	origin := jid.FromSeed(jid.KindPeer, 1)
	a.noteCursor(origin, 1)
	// Entries above the gap arrived before the signal.
	a.noteCursor(origin, 10)
	a.noteCursor(origin, 11)
	// Retention dropped 2..8; the log retains 9..11. Waiting for 2 would
	// stall the cursor forever, so the gap signal jumps the floor to 8
	// and the pending run 9 would drain when it arrives.
	a.jumpCursor(origin, 9)
	if got := a.cursor(origin); got != 8 {
		t.Fatalf("cursor after gap jump to first=9: %d, want 8", got)
	}
	a.noteCursor(origin, 9)
	if got := a.cursor(origin); got != 11 {
		t.Fatalf("cursor after 9 arrives = %d, want 11 (pending 10,11 drain)", got)
	}
	// A stale or retained-everything gap signal must not move the cursor
	// backwards.
	a.jumpCursor(origin, 5)
	if got := a.cursor(origin); got != 11 {
		t.Fatalf("cursor after stale gap = %d, want 11", got)
	}
	a.jumpCursor(origin, 0)
	if got := a.cursor(origin); got != 11 {
		t.Fatalf("cursor after empty gap = %d, want 11", got)
	}
}

func TestCursorPendingSetBounded(t *testing.T) {
	a := &attachment{}
	origin := jid.FromSeed(jid.KindPeer, 1)
	// Never deliver seq 1: everything lands in the pending set, which
	// must stay capped instead of growing with the hole's width.
	for seq := uint64(2); seq < maxPendingSeqs*2; seq++ {
		a.noteCursor(origin, seq)
	}
	a.curMu.Lock()
	pending := len(a.cursors[origin].pending)
	a.curMu.Unlock()
	if pending > maxPendingSeqs {
		t.Fatalf("pending set grew to %d, cap is %d", pending, maxPendingSeqs)
	}
	if got := a.cursor(origin); got != 0 {
		t.Fatalf("cursor with seq 1 missing = %d, want 0", got)
	}
}

// TestReplayWakeUpsFromManyGoroutines drives what the replay loop now
// shares with other goroutines — the owed set, written by lease
// listeners on transport receive goroutines, and the wake channel,
// kicked by listeners, attach and Subscribe — from several at once, and
// then holds the loop to two outcomes: a rendezvous that granted and
// was lost again is owed nothing once a round has run, and Close still
// returns.
func TestReplayWakeUpsFromManyGoroutines(t *testing.T) {
	n := netsim.New(netsim.Config{})
	t.Cleanup(n.Close)
	node, err := n.AddNode("solo")
	if err != nil {
		t.Fatal(err)
	}
	p, err := peer.New(peer.Config{Name: "solo"}, memnet.New(node))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	type tick struct{ N int }
	reg := typereg.New()
	root, err := reg.Register(reflect.TypeOf(tick{}), nil)
	if err != nil {
		t.Fatal(err)
	}
	// No ticker fires within the test: every round below is a wake-up.
	e, err := New(Config{Peer: p, Registry: reg, FindInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	deliver := func(any, jid.ID) error { return nil }
	if _, err := e.Subscribe(root, deliver, nil); err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	a := e.attachments[root.Path()]
	e.mu.Unlock()
	if a == nil {
		t.Fatal("Subscribe left no attachment")
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				// What a lease listener does, for rendezvous the group
				// holds no lease with.
				a.oweReplay(jid.FromSeed(jid.KindPeer, uint64(g*1000+i)))
				e.kickReplay()
				if sub, err := e.Subscribe(root, deliver, nil); err == nil {
					e.Unsubscribe(sub)
				}
				_ = e.Snapshot()
			}
		}(g)
	}
	wg.Wait()
	e.kickReplay()
	deadline := time.Now().Add(5 * time.Second)
	for {
		a.curMu.Lock()
		owed := len(a.owed)
		a.curMu.Unlock()
		if owed == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d rendezvous without a lease are still owed a request", owed)
		}
		time.Sleep(time.Millisecond)
	}
	if got := e.stats.replayRequests.Load(); got != 0 {
		t.Fatalf("%d replay requests counted, none could be sent", got)
	}
}

// TestGapsAndGrantsReachOnlyTheirAttachment runs two types on a
// rendezvous peer, where both attachments sit on the peer's one
// rendezvous service and hear every gap and grant it receives. A gap for
// one topic jumps only that attachment's cursor and names only its path;
// a grant for "", which carries every group, kicks the replay loop once
// per attachment. Once the attachments have closed, with the service
// still running, neither reaches them. On an edge in the same two
// groups a grant names one group: it is owed to that group's attachment
// alone.
func TestGapsAndGrantsReachOnlyTheirAttachment(t *testing.T) {
	n := netsim.New(netsim.Config{})
	t.Cleanup(n.Close)
	node, err := n.AddNode("rdv")
	if err != nil {
		t.Fatal(err)
	}
	p, err := peer.New(peer.Config{Name: "rdv", Rendezvous: rendezvous.Config{Role: rendezvous.RoleRendezvous}}, memnet.New(node))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	// other speaks the rendezvous protocol by hand: its element names are
	// the wire contract.
	otherNode, err := n.AddNode("other")
	if err != nil {
		t.Fatal(err)
	}
	other := endpoint.New(jid.FromSeed(jid.KindPeer, 99))
	if err := other.AddTransport(memnet.New(otherNode)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = other.Close() })
	send := func(to endpoint.Address, group, op string, fill func(*message.Message)) {
		t.Helper()
		m := message.New(other.PeerID())
		m.AddString("rdv", "Op", op)
		fill(m)
		if err := other.Send(to, rendezvous.ServiceName, group, m); err != nil {
			t.Fatal(err)
		}
		n.WaitQuiesce(5 * time.Second)
	}
	origin := jid.FromSeed(jid.KindPeer, 7)
	gap := func(topic string) {
		send("mem://rdv", "", "gap", func(m *message.Message) {
			m.AddString("rdv", "Topic", topic)
			m.AddID("rdv", "LogSrc", origin)
			m.AddUint64("rdv", "First", 10)
			m.AddUint64("rdv", "Last", 20)
		})
	}
	// grantTo grants a lease of the one group: a set of one name, the
	// name and a NUL byte.
	grantTo := func(to endpoint.Address, group string) {
		send(to, "", "lease", func(m *message.Message) {
			m.AddUint64("rdv", "Seed", 1)
			m.AddBytes("rdv", "Groups", append([]byte(group), 0))
			m.AddUint64("rdv", "Lease", uint64(time.Minute/time.Millisecond))
			m.AddUint64("rdv", "Epoch", 1)
		})
	}
	grant := func() { grantTo("mem://rdv", "") }

	type stock struct{ N int }
	type fx struct{ N int }
	reg := typereg.New()
	stockNode, err := reg.Register(reflect.TypeOf(stock{}), nil)
	if err != nil {
		t.Fatal(err)
	}
	fxNode, err := reg.Register(reflect.TypeOf(fx{}), nil)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Peer: p, Registry: reg, FindInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var errs []error
	deliver := func(any, jid.ID) error { return nil }
	onError := func(err error) { mu.Lock(); errs = append(errs, err); mu.Unlock() }
	gaps := func() []*ReplayGapError {
		mu.Lock()
		defer mu.Unlock()
		var out []*ReplayGapError
		for _, err := range errs {
			if g, ok := err.(*ReplayGapError); ok {
				out = append(out, g)
			}
		}
		return out
	}
	attachmentOf := func(e *Engine, node *typereg.Node) *attachment {
		t.Helper()
		e.mu.Lock()
		defer e.mu.Unlock()
		a := e.attachments[node.Path()]
		if a == nil {
			t.Fatalf("no attachment for %s", node.Path())
		}
		return a
	}
	subscribed := func(node *typereg.Node) *attachment {
		t.Helper()
		if _, err := e.Subscribe(node, deliver, onError); err != nil {
			t.Fatal(err)
		}
		return attachmentOf(e, node)
	}
	a, b := subscribed(stockNode), subscribed(fxNode)
	a.noteCursor(origin, 1)
	b.noteCursor(origin, 1)

	gap(a.param)
	// Only the subscription covering the gapped type hears it.
	heard := gaps()
	if len(heard) != 1 {
		t.Fatalf("a gap raised %d errors, want 1", len(heard))
	}
	for _, g := range heard {
		if g.Path != a.path || g.Topic != a.param {
			t.Fatalf("gap error %+v, want it to name %s only", g, a.path)
		}
	}
	if ca, cb := a.cursor(origin), b.cursor(origin); ca != 9 || cb != 1 {
		t.Fatalf("cursors after a gap for %s: %d and %d, want 9 and 1", a.path, ca, cb)
	}
	kicks := e.stats.replayKicks.Load()
	grant()
	if got := e.stats.replayKicks.Load() - kicks; got != 2 {
		t.Fatalf("a grant kicked the replay loop %d times, want once per attachment", got)
	}

	e.Close()
	kicks = e.stats.replayKicks.Load()
	grant()
	gap(a.param)
	gap(b.param)
	if got := e.stats.replayKicks.Load() - kicks; got != 0 {
		t.Fatalf("a grant after close kicked the replay loop %d times", got)
	}
	if ca, cb := a.cursor(origin), b.cursor(origin); ca != 9 || cb != 1 {
		t.Fatalf("cursors moved after close: %d and %d", ca, cb)
	}
	if g := gaps(); len(g) != len(heard) {
		t.Fatalf("%d gap errors after close, want the %d from before", len(g), len(heard))
	}

	// The edge attaches to both types without subscribing: with nobody to
	// deliver to, the replay loop leaves what is owed where it is.
	edgeNode, err := n.AddNode("edge")
	if err != nil {
		t.Fatal(err)
	}
	edge, err := peer.New(peer.Config{Name: "edge"}, memnet.New(edgeNode))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(edge.Close)
	onEdge, err := New(Config{Peer: edge, Registry: reg, FindInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer onEdge.Close()
	for _, node := range []*typereg.Node{stockNode, fxNode} {
		if err := onEdge.EnsureType(node); err != nil {
			t.Fatal(err)
		}
	}
	x, y := attachmentOf(onEdge, stockNode), attachmentOf(onEdge, fxNode)
	owed := func(a *attachment) int {
		a.curMu.Lock()
		defer a.curMu.Unlock()
		return len(a.owed)
	}
	grantTo("mem://edge", y.param)
	if ox, oy := owed(x), owed(y); ox != 0 || oy != 1 {
		t.Fatalf("a grant for %s is owed to %d and %d attachments, want 0 and 1", y.path, ox, oy)
	}
}

// TestErrorsReachOnlyCoveringSubscriptions subscribes to two unrelated
// types on one engine. A gap signal for one type's group, and an event
// frame in the other's that does not decode, each reach the exception
// handler of the subscription covering that type and no other.
func TestErrorsReachOnlyCoveringSubscriptions(t *testing.T) {
	n := netsim.New(netsim.Config{})
	t.Cleanup(n.Close)
	node, err := n.AddNode("solo")
	if err != nil {
		t.Fatal(err)
	}
	p, err := peer.New(peer.Config{Name: "solo"}, memnet.New(node))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	otherNode, err := n.AddNode("other")
	if err != nil {
		t.Fatal(err)
	}
	other := endpoint.New(jid.FromSeed(jid.KindPeer, 99))
	if err := other.AddTransport(memnet.New(otherNode)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = other.Close() })

	type stock struct{ N int }
	type fx struct{ N int }
	reg := typereg.New()
	stockNode, err := reg.Register(reflect.TypeOf(stock{}), nil)
	if err != nil {
		t.Fatal(err)
	}
	fxNode, err := reg.Register(reflect.TypeOf(fx{}), nil)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Peer: p, Registry: reg, FindInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var mu sync.Mutex
	heard := map[string][]error{}
	subscribe := func(node *typereg.Node) {
		t.Helper()
		onError := func(err error) { mu.Lock(); heard[node.Path()] = append(heard[node.Path()], err); mu.Unlock() }
		if _, err := e.Subscribe(node, func(any, jid.ID) error { return nil }, onError); err != nil {
			t.Fatal(err)
		}
	}
	subscribe(stockNode)
	subscribe(fxNode)
	counts := func() (int, int) {
		mu.Lock()
		defer mu.Unlock()
		return len(heard[stockNode.Path()]), len(heard[fxNode.Path()])
	}
	send := func(service, param string, fill func(*message.Message)) {
		t.Helper()
		m := message.New(other.PeerID())
		fill(m)
		if err := other.Send("mem://solo", service, param, m); err != nil {
			t.Fatal(err)
		}
		n.WaitQuiesce(5 * time.Second)
	}

	send(rendezvous.ServiceName, "", func(m *message.Message) {
		m.AddString("rdv", "Op", "gap")
		m.AddString("rdv", "Topic", TypeGroup(stockNode.Path()).String())
		m.AddID("rdv", "LogSrc", jid.FromSeed(jid.KindPeer, 7))
		m.AddUint64("rdv", "First", 10)
		m.AddUint64("rdv", "Last", 20)
	})
	if s, f := counts(); s != 1 || f != 0 {
		t.Fatalf("a gap in %s reached %d %s and %d %s handlers, want 1 and 0", stockNode.Path(), s, stockNode.Path(), f, fxNode.Path())
	}
	send(EventService, TypeGroup(fxNode.Path()).String(), func(m *message.Message) {
		m.AddID(elemNS, elemEventID, jid.NewMessage())
		m.AddBytes(elemNS, elemData, []byte("not gob"))
	})
	if s, f := counts(); s != 1 || f != 1 {
		t.Fatalf("after an undecodable %s event: %d %s and %d %s errors, want 1 and 1", fxNode.Path(), s, stockNode.Path(), f, fxNode.Path())
	}
	if got := e.stats.decodeErrors.Load(); got != 1 {
		t.Fatalf("%d decode failures counted, want 1", got)
	}
}
