package engine

// replay_test.go tests the engine as the recovery core's driver: what
// its replay loop shares with other goroutines, and the routing of the
// peer's grants, gaps and errors to the attachments and subscriptions
// they concern. The core's decisions are tested in rendezvous/recovery.

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
				a.epoch(jid.FromSeed(jid.KindPeer, uint64(g*1000+i)))
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
		if a.owed() == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d rendezvous without a lease are still owed a request", a.owed())
		}
		time.Sleep(time.Millisecond)
	}
	if got := e.stats.replayRequests.Load(); got != 0 {
		t.Fatalf("%d replay requests counted, none could be sent", got)
	}
}

// TestGapsAndGrantsReachOnlyTheirAttachment runs two types on a
// rendezvous peer, where both attachments sit on the peer's one
// rendezvous service and hear every range signal and grant it receives.
// A gap for one topic, answering a request both attachments sent, jumps
// only that attachment's cursor and names only its path;
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
	origin := other.PeerID()
	gap := func(topic string) {
		send("mem://rdv", "", "range", func(m *message.Message) {
			m.AddString("rdv", "Topic", topic)
			m.AddID("rdv", "LogSrc", origin)
			m.AddUint64("rdv", "First", 10)
			m.AddUint64("rdv", "Last", 20)
			m.AddString("rdv", "Gap", "true")
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
	for _, x := range []*attachment{a, b} {
		x.Logged(origin, 1)
		x.asked(origin)
	}

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
	grantTo("mem://edge", y.param)
	if ox, oy := x.owed(), y.owed(); ox != 0 || oy != 1 {
		t.Fatalf("a grant for %s is owed to %d and %d attachments, want 0 and 1", y.path, ox, oy)
	}
}

// TestErrorsReachOnlyCoveringSubscriptions subscribes to two unrelated
// types on one engine. A gap for one type's group, and an event
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

	for _, node := range []*typereg.Node{stockNode, fxNode} {
		e.mu.Lock()
		e.attachments[node.Path()].asked(other.PeerID())
		e.mu.Unlock()
	}
	send(rendezvous.ServiceName, "", func(m *message.Message) {
		m.AddString("rdv", "Op", "range")
		m.AddString("rdv", "Topic", TypeGroup(stockNode.Path()).String())
		m.AddID("rdv", "LogSrc", other.PeerID())
		m.AddUint64("rdv", "First", 10)
		m.AddUint64("rdv", "Last", 20)
		m.AddString("rdv", "Gap", "true")
	})
	if s, f := counts(); s != 1 || f != 0 {
		t.Fatalf("a gap in %s reached %d %s and %d %s handlers, want 1 and 0", stockNode.Path(), s, stockNode.Path(), f, fxNode.Path())
	}
	send(EventService, TypeGroup(fxNode.Path()).String(), func(m *message.Message) {
		m.AddBytes(elemNS, elemData, []byte("not gob"))
	})
	if s, f := counts(); s != 1 || f != 1 {
		t.Fatalf("after an undecodable %s event: %d %s and %d %s errors, want 1 and 1", fxNode.Path(), s, stockNode.Path(), f, fxNode.Path())
	}
	if got := e.stats.decodeErrors.Load(); got != 1 {
		t.Fatalf("%d decode failures counted, want 1", got)
	}
}

// cursor returns the attachment's cursor into origin's log.
func (a *attachment) cursor(origin jid.ID) uint64 {
	a.recMu.Lock()
	defer a.recMu.Unlock()
	return a.rec.Mark(origin)
}

// asked records a request to rdv for its own log, as a round that sent
// one would: the answer to it is the attachment's to take.
func (a *attachment) asked(rdv jid.ID) {
	a.recMu.Lock()
	defer a.recMu.Unlock()
	a.rec.Epoch(rdv)
	a.rec.Round(nil, false)
}

// owed counts the rendezvous the attachment owes a replay request.
func (a *attachment) owed() int {
	a.recMu.Lock()
	defer a.recMu.Unlock()
	return a.rec.Owed()
}

// TestReplayGapErrorSaysWhatIsRetained reads the error a subscriber's
// handler gets: the retained range, or that nothing is retained.
func TestReplayGapErrorSaysWhatIsRetained(t *testing.T) {
	for _, tc := range []struct {
		err  ReplayGapError
		want string
	}{
		{ReplayGapError{Path: "p", First: 9, Last: 11}, "tps: replay gap on p: events before seq 9 no longer retained (have 9..11)"},
		{ReplayGapError{Path: "p"}, "tps: replay gap on p: nothing retained"},
		{ReplayGapError{Path: "p", Tentative: true}, "tps: replay gap on p: nothing retained (tentative: replica not yet synced)"},
	} {
		if got := tc.err.Error(); got != tc.want {
			t.Errorf("%+v: %q, want %q", tc.err, got, tc.want)
		}
	}
}
