package engine_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tps-p2p/tps/internal/core/codec"
	"github.com/tps-p2p/tps/internal/core/engine"
	"github.com/tps-p2p/tps/internal/core/typereg"
	"github.com/tps-p2p/tps/internal/jxta/adv"
	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/message"
	"github.com/tps-p2p/tps/internal/jxta/peer"
	"github.com/tps-p2p/tps/internal/jxta/rendezvous"
	"github.com/tps-p2p/tps/internal/jxta/transport/memnet"
	"github.com/tps-p2p/tps/internal/jxta/wire"
	"github.com/tps-p2p/tps/internal/netsim"
)

// The Figure 7 hierarchy: quote events with a common interface root.
type quote interface{ Sym() string }

type stockQuote struct {
	Symbol string
	Price  float64
}

func (q stockQuote) Sym() string { return q.Symbol }

type fxQuote struct {
	Pair string
	Rate float64
}

func (q fxQuote) Sym() string { return q.Pair }

type techQuote struct {
	stockQuote
	PE float64
}

// newRegistry builds the test hierarchy: quote <- {stockQuote, fxQuote},
// stockQuote <- techQuote.
func newRegistry(t *testing.T) (*typereg.Registry, map[string]*typereg.Node) {
	t.Helper()
	r := typereg.New()
	nodes := map[string]*typereg.Node{}
	var err error
	if nodes["quote"], err = r.Register(reflect.TypeOf((*quote)(nil)).Elem(), nil); err != nil {
		t.Fatal(err)
	}
	if nodes["stock"], err = r.Register(reflect.TypeOf(stockQuote{}), nodes["quote"]); err != nil {
		t.Fatal(err)
	}
	if nodes["fx"], err = r.Register(reflect.TypeOf(fxQuote{}), nodes["quote"]); err != nil {
		t.Fatal(err)
	}
	if nodes["tech"], err = r.Register(reflect.TypeOf(techQuote{}), nodes["stock"]); err != nil {
		t.Fatal(err)
	}
	return r, nodes
}

type testRig struct {
	t   *testing.T
	net *netsim.Network
	n   int
}

func newRig(t *testing.T) *testRig {
	t.Helper()
	n := netsim.New(netsim.Config{DefaultLink: netsim.Link{Latency: time.Millisecond}})
	t.Cleanup(n.Close)
	rig := &testRig{t: t, net: n}
	// One rendezvous bridges everything.
	node, err := n.AddNode("rdv")
	if err != nil {
		t.Fatal(err)
	}
	d, err := peer.New(peer.Config{Name: "rdv", Rendezvous: rendezvous.Config{Role: rendezvous.RoleRendezvous, LeaseTTL: 2 * time.Second}}, memnet.New(node))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return rig
}

type testEnginePeer struct {
	peer  *peer.Peer
	eng   *engine.Engine
	nodes map[string]*typereg.Node
}

// addPeer starts an edge peer seeded with the rig's rendezvous and waits
// for its net group's lease.
func (r *testRig) addPeer() *peer.Peer { return r.addPeerVia(nil) }

// addPeerVia is addPeer with the peer's transport handed through wrap
// first, unless wrap is nil.
func (r *testRig) addPeerVia(wrap func(endpoint.Transport) endpoint.Transport) *peer.Peer {
	r.t.Helper()
	r.n++
	name := fmt.Sprintf("peer%d", r.n)
	node, err := r.net.AddNode(name)
	if err != nil {
		r.t.Fatal(err)
	}
	var tr endpoint.Transport = memnet.New(node)
	if wrap != nil {
		tr = wrap(tr)
	}
	p, err := peer.New(peer.Config{
		Name:       name,
		Rendezvous: rendezvous.Config{Seeds: []endpoint.Address{"mem://rdv"}, LeaseTTL: 2 * time.Second},
	}, tr)
	if err != nil {
		r.t.Fatal(err)
	}
	r.t.Cleanup(p.Close)
	if !p.Rendezvous().AwaitConnected(jid.NetGroup.String(), 5*time.Second) {
		r.t.Fatal("peer never reached the rendezvous")
	}
	return p
}

func (r *testRig) addEngine() *testEnginePeer { return r.engineOn(r.addPeer(), engine.Config{}) }

// engineOn starts an engine on p with the test hierarchy, the rig's
// finder timings and whatever else cfg sets.
func (r *testRig) engineOn(p *peer.Peer, cfg engine.Config) *testEnginePeer {
	r.t.Helper()
	reg, nodes := newRegistry(r.t)
	cfg.Peer, cfg.Registry = p, reg
	cfg.FindTimeout, cfg.FindInterval = 400*time.Millisecond, 100*time.Millisecond
	eng, err := engine.New(cfg)
	if err != nil {
		r.t.Fatal(err)
	}
	r.t.Cleanup(eng.Close)
	return &testEnginePeer{peer: p, eng: eng, nodes: nodes}
}

// collector gathers delivered events.
type collector struct {
	mu     sync.Mutex
	events []any
	errs   []error
}

func (c *collector) deliver(event any, _ jid.ID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, event)
	return nil
}

func (c *collector) onError(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.errs = append(c.errs, err)
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}

func (c *collector) snapshot() []any {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]any(nil), c.events...)
}

func (c *collector) errCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.errs)
}

func waitCount(t *testing.T, c *collector, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.count() < n {
		if time.Now().After(deadline) {
			t.Fatalf("timeout: have %d events, want %d", c.count(), n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestPublisherFirstThenSubscriber(t *testing.T) {
	rig := newRig(t)
	pub := rig.addEngine()
	sub := rig.addEngine()

	// Publisher ensures the type exists (creates the advertisement: the
	// paper's initialization phase).
	if err := pub.eng.EnsureType(pub.nodes["stock"]); err != nil {
		t.Fatal(err)
	}
	var c collector
	if _, err := sub.eng.Subscribe(sub.nodes["stock"], c.deliver, c.onError); err != nil {
		t.Fatal(err)
	}
	if !pub.eng.AwaitReady(pub.nodes["stock"], 1, 5*time.Second) ||
		!sub.eng.AwaitReady(sub.nodes["stock"], 1, 5*time.Second) {
		t.Fatal("attachments never became ready")
	}
	if err := pub.eng.Publish(stockQuote{Symbol: "ACME", Price: 42}); err != nil {
		t.Fatal(err)
	}
	waitCount(t, &c, 1)
	got, ok := c.snapshot()[0].(stockQuote)
	if !ok || got.Symbol != "ACME" || got.Price != 42 {
		t.Fatalf("got %#v", c.snapshot()[0])
	}
}

func TestSubscriberFirstThenPublisher(t *testing.T) {
	rig := newRig(t)
	sub := rig.addEngine()
	pub := rig.addEngine()

	var c collector
	if _, err := sub.eng.Subscribe(sub.nodes["stock"], c.deliver, c.onError); err != nil {
		t.Fatal(err)
	}
	// The publisher's EnsureType must FIND the subscriber's
	// advertisement instead of creating a second one (minimization).
	if err := pub.eng.EnsureType(pub.nodes["stock"]); err != nil {
		t.Fatal(err)
	}
	if n := pub.eng.Snapshot().Counters["advs_created"]; n != 0 {
		t.Fatalf("publisher created %d advs despite existing one", n)
	}
	if !pub.eng.AwaitReady(pub.nodes["stock"], 1, 5*time.Second) {
		t.Fatal("publisher attachment not ready")
	}
	if err := pub.eng.Publish(stockQuote{Symbol: "XYZ", Price: 7}); err != nil {
		t.Fatal(err)
	}
	waitCount(t, &c, 1)
}

func TestSubtypeDeliveryFigure7(t *testing.T) {
	rig := newRig(t)
	pub := rig.addEngine()
	subAll := rig.addEngine()  // subscribes to the interface root
	subTech := rig.addEngine() // subscribes to a leaf

	var cAll, cTech collector
	if _, err := subAll.eng.Subscribe(subAll.nodes["quote"], cAll.deliver, cAll.onError); err != nil {
		t.Fatal(err)
	}
	if _, err := subTech.eng.Subscribe(subTech.nodes["tech"], cTech.deliver, cTech.onError); err != nil {
		t.Fatal(err)
	}
	// Publish one event of each concrete type.
	for _, n := range []string{"stock", "fx", "tech"} {
		if err := pub.eng.EnsureType(pub.nodes[n]); err != nil {
			t.Fatal(err)
		}
	}
	// Everybody must see everybody: the quote subscriber needs all three
	// type attachments ready on the publisher side.
	for _, n := range []string{"stock", "fx", "tech"} {
		if !pub.eng.AwaitReady(pub.nodes[n], 1, 5*time.Second) {
			t.Fatalf("publisher %s attachment not ready", n)
		}
	}
	if !subAll.eng.AwaitReady(subAll.nodes["quote"], 3, 10*time.Second) {
		t.Fatal("root subscriber did not attach to all subtype groups")
	}
	if !subTech.eng.AwaitReady(subTech.nodes["tech"], 1, 5*time.Second) {
		t.Fatal("leaf subscriber not ready")
	}
	// Under load the publisher's find window can expire before it sees a
	// subscriber-created advertisement, leaving duplicate groups for one
	// type. The publishes below are one-shot, so both sides must converge
	// on the full merged group set (attached AND leased) before firing,
	// as TestSimultaneousCreation does for the two-peer case. All
	// advertisement creation is over by now, so the total is stable.
	created := 0
	for _, p := range []*testEnginePeer{pub, subAll, subTech} {
		created += int(p.eng.Snapshot().Counters["advs_created"])
	}
	if !pub.eng.AwaitReady(pub.nodes["quote"], created, 15*time.Second) {
		t.Fatal("publisher never became ready on every merged group")
	}
	if !subAll.eng.AwaitReady(subAll.nodes["quote"], created, 15*time.Second) {
		t.Fatal("root subscriber never became ready on every merged group")
	}

	if err := pub.eng.Publish(stockQuote{Symbol: "S", Price: 1}); err != nil {
		t.Fatal(err)
	}
	if err := pub.eng.Publish(fxQuote{Pair: "EURUSD", Rate: 1.1}); err != nil {
		t.Fatal(err)
	}
	if err := pub.eng.Publish(techQuote{stockQuote: stockQuote{Symbol: "T", Price: 2}, PE: 30}); err != nil {
		t.Fatal(err)
	}

	// Root subscriber receives all three (fA,fB,fC,fD semantics)...
	waitCount(t, &cAll, 3)
	kinds := map[string]int{}
	for _, ev := range cAll.snapshot() {
		kinds[fmt.Sprintf("%T", ev)]++
	}
	if len(kinds) != 3 {
		t.Fatalf("root subscriber kinds = %v", kinds)
	}
	// ...the leaf subscriber exactly one (fD only).
	waitCount(t, &cTech, 1)
	time.Sleep(200 * time.Millisecond)
	if cTech.count() != 1 {
		t.Fatalf("leaf subscriber received %d events", cTech.count())
	}
	if _, ok := cTech.snapshot()[0].(techQuote); !ok {
		t.Fatalf("leaf got %T", cTech.snapshot()[0])
	}
}

func TestSimultaneousCreationConvergesWithExactlyOnceDelivery(t *testing.T) {
	rig := newRig(t)
	a := rig.addEngine()
	b := rig.addEngine()

	// Both ensure the same type concurrently: they may race and create
	// two advertisements (two groups) for it.
	var wg sync.WaitGroup
	for _, p := range []*testEnginePeer{a, b} {
		wg.Add(1)
		go func(p *testEnginePeer) {
			defer wg.Done()
			if err := p.eng.EnsureType(p.nodes["stock"]); err != nil {
				t.Errorf("ensure: %v", err)
			}
		}(p)
	}
	wg.Wait()

	var c collector
	if _, err := b.eng.Subscribe(b.nodes["stock"], c.deliver, c.onError); err != nil {
		t.Fatal(err)
	}
	// Let the finders merge the advertisement sets: if two groups were
	// created, both engines eventually attach to both.
	created := a.eng.Snapshot().Counters["advs_created"] + b.eng.Snapshot().Counters["advs_created"]
	if created >= 2 {
		if !a.eng.AwaitReady(a.nodes["stock"], 2, 10*time.Second) ||
			!b.eng.AwaitReady(b.nodes["stock"], 2, 10*time.Second) {
			t.Fatal("engines never merged the duplicate advertisements")
		}
	}
	// The publishes below are one-shot: the publisher must hold a lease
	// on EVERY merged group before firing, and the subscriber on at least
	// one, or early events evaporate before the mesh is reachable.
	if !a.eng.AwaitReady(a.nodes["stock"], int(created), 10*time.Second) {
		t.Fatal("a not ready")
	}
	if !b.eng.AwaitReady(b.nodes["stock"], 1, 10*time.Second) {
		t.Fatal("b not ready")
	}
	const total = 10
	for i := 0; i < total; i++ {
		if err := a.eng.Publish(stockQuote{Symbol: "DUP", Price: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitCount(t, &c, total)
	// Exactly once despite multi-group publication.
	time.Sleep(300 * time.Millisecond)
	if c.count() != total {
		t.Fatalf("delivered %d, want exactly %d (TPS dedupe failed)", c.count(), total)
	}
}

// TestEveryGroupOfATypeGetsEveryEvent: a publisher attached to two
// groups of its type sends every event into both, and a subscriber in
// either group gets every one. Each group here has one subscriber of its
// own: a raw peer that advertised the group, joined it alone and listens
// on its wire. The rendezvous serves both groups with one duplicate
// cache, so it must not take one group's copy of an event for a repeat
// of the other's.
func TestEveryGroupOfATypeGetsEveryEvent(t *testing.T) {
	rig := newRig(t)
	pub := rig.addEngine()
	path := pub.nodes["stock"].Path()
	var got [2]atomic.Int64
	for i := range got {
		_, g, pipe := rig.rawGroup(path)
		in, err := g.Wire.CreateInputPipe(pipe)
		if err != nil {
			t.Fatal(err)
		}
		in.SetListener(func(*message.Message) { got[i].Add(1) })
	}
	if err := pub.eng.EnsureType(pub.nodes["stock"]); err != nil {
		t.Fatal(err)
	}
	if !pub.eng.AwaitReady(pub.nodes["stock"], 2, 10*time.Second) {
		t.Fatal("the publisher never attached to both groups")
	}
	const total = 20
	for i := 0; i < total; i++ {
		if err := pub.eng.Publish(stockQuote{Symbol: "BOTH", Price: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for got[0].Load() < total || got[1].Load() < total {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	rig.net.WaitQuiesce(5 * time.Second)
	if a, b := got[0].Load(), got[1].Load(); a != total || b != total {
		t.Fatalf("the groups' subscribers got %d and %d events, want %d each", a, b, total)
	}
}

// rawGroup starts a peer that advertises a group for the type path, as
// an engine would, joins it alone and holds its lease: a peer that
// speaks the group's wire without an engine.
func (r *testRig) rawGroup(path string) (*peer.Peer, *peer.Group, *adv.PipeAdv) {
	r.t.Helper()
	raw := r.addPeer()
	gid := jid.NewGroup()
	pipe := &adv.PipeAdv{PipeID: jid.NewPipeIn(gid), Type: adv.PipePropagate, Name: engine.PSPrefix + path}
	groupAdv := &adv.PeerGroupAdv{GroupID: gid, PeerID: raw.ID(), Name: engine.PSPrefix + path}
	groupAdv.SetService(adv.ServiceAdv{Name: wire.ServiceName, Pipe: pipe})
	if err := raw.Discovery().RemotePublish(groupAdv, 0); err != nil {
		r.t.Fatal(err)
	}
	g, _, err := raw.JoinGroupFromAdv(groupAdv)
	if err != nil {
		r.t.Fatal(err)
	}
	if !raw.Rendezvous().AwaitConnected(g.Param(), 5*time.Second) {
		r.t.Fatalf("the raw peer never leased its group for %s", path)
	}
	return raw, g, pipe
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	rig := newRig(t)
	pub := rig.addEngine()
	sub := rig.addEngine()
	var c1, c2 collector
	s1, err := sub.eng.Subscribe(sub.nodes["stock"], c1.deliver, c1.onError)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sub.eng.Subscribe(sub.nodes["stock"], c2.deliver, c2.onError); err != nil {
		t.Fatal(err)
	}
	if sub.eng.SubscriptionCount() != 2 {
		t.Fatalf("subscriptions = %d", sub.eng.SubscriptionCount())
	}
	if err := pub.eng.EnsureType(pub.nodes["stock"]); err != nil {
		t.Fatal(err)
	}
	if !pub.eng.AwaitReady(pub.nodes["stock"], 1, 5*time.Second) {
		t.Fatal("not ready")
	}
	if err := pub.eng.Publish(stockQuote{Symbol: "ONE"}); err != nil {
		t.Fatal(err)
	}
	waitCount(t, &c1, 1)
	waitCount(t, &c2, 1)

	// Remove one callback: only the other keeps receiving (paper method 4).
	sub.eng.Unsubscribe(s1)
	if err := pub.eng.Publish(stockQuote{Symbol: "TWO"}); err != nil {
		t.Fatal(err)
	}
	waitCount(t, &c2, 2)
	time.Sleep(100 * time.Millisecond)
	if c1.count() != 1 {
		t.Fatalf("unsubscribed callback still got %d events", c1.count())
	}

	// Remove everything: no event is received anymore (paper method 5).
	sub.eng.UnsubscribeAll()
	if err := pub.eng.Publish(stockQuote{Symbol: "THREE"}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	if c2.count() != 2 {
		t.Fatalf("callback got %d events after UnsubscribeAll", c2.count())
	}
}

func TestExceptionHandlerReceivesCallbackErrors(t *testing.T) {
	rig := newRig(t)
	pub := rig.addEngine()
	sub := rig.addEngine()
	var c collector
	boom := errors.New("boom")
	if _, err := sub.eng.Subscribe(sub.nodes["stock"], func(any, jid.ID) error { return boom }, c.onError); err != nil {
		t.Fatal(err)
	}
	if err := pub.eng.EnsureType(pub.nodes["stock"]); err != nil {
		t.Fatal(err)
	}
	if !pub.eng.AwaitReady(pub.nodes["stock"], 1, 5*time.Second) {
		t.Fatal("not ready")
	}
	if err := pub.eng.Publish(stockQuote{}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.errCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("exception handler never fired")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestCallbackPanicIsContained(t *testing.T) {
	rig := newRig(t)
	pub := rig.addEngine()
	sub := rig.addEngine()
	var c collector
	if _, err := sub.eng.Subscribe(sub.nodes["stock"], func(any, jid.ID) error { panic("subscriber bug") }, c.onError); err != nil {
		t.Fatal(err)
	}
	var ok collector
	if _, err := sub.eng.Subscribe(sub.nodes["stock"], ok.deliver, ok.onError); err != nil {
		t.Fatal(err)
	}
	if err := pub.eng.EnsureType(pub.nodes["stock"]); err != nil {
		t.Fatal(err)
	}
	if !pub.eng.AwaitReady(pub.nodes["stock"], 1, 5*time.Second) {
		t.Fatal("not ready")
	}
	if err := pub.eng.Publish(stockQuote{Symbol: "P"}); err != nil {
		t.Fatal(err)
	}
	waitCount(t, &ok, 1) // the healthy subscriber still got the event
	deadline := time.Now().Add(5 * time.Second)
	for c.errCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("panic never surfaced to the exception handler")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestPublishUnregisteredType(t *testing.T) {
	rig := newRig(t)
	p := rig.addEngine()
	type unregistered struct{ X int }
	if err := p.eng.Publish(unregistered{}); !errors.Is(err, engine.ErrNotRegistered) {
		t.Fatalf("err = %v", err)
	}
}

func TestClosedEngineRefusesWork(t *testing.T) {
	rig := newRig(t)
	p := rig.addEngine()
	p.eng.Close()
	p.eng.Close() // idempotent
	if err := p.eng.Publish(stockQuote{}); !errors.Is(err, engine.ErrClosed) {
		t.Fatalf("publish after close: %v", err)
	}
	if _, err := p.eng.Subscribe(p.nodes["stock"], func(any, jid.ID) error { return nil }, nil); !errors.Is(err, engine.ErrClosed) {
		t.Fatalf("subscribe after close: %v", err)
	}
}

func TestIsolatedPeerLoopback(t *testing.T) {
	// A peer with no rendezvous still works locally: publisher and
	// subscriber in one process (time/space decoupling degenerates to
	// loopback).
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
	reg, nodes := newRegistry(t)
	eng, err := engine.New(engine.Config{
		Peer: p, Registry: reg,
		FindTimeout:  200 * time.Millisecond,
		FindInterval: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	var c collector
	if _, err := eng.Subscribe(nodes["stock"], c.deliver, c.onError); err != nil {
		t.Fatal(err)
	}
	if err := eng.Publish(stockQuote{Symbol: "SELF", Price: 3}); err != nil {
		t.Fatal(err)
	}
	waitCount(t, &c, 1)
}

func TestStatsProgression(t *testing.T) {
	rig := newRig(t)
	pub := rig.addEngine()
	sub := rig.addEngine()
	var c collector
	if _, err := sub.eng.Subscribe(sub.nodes["stock"], c.deliver, c.onError); err != nil {
		t.Fatal(err)
	}
	if err := pub.eng.EnsureType(pub.nodes["stock"]); err != nil {
		t.Fatal(err)
	}
	if !pub.eng.AwaitReady(pub.nodes["stock"], 1, 5*time.Second) {
		t.Fatal("not ready")
	}
	for i := 0; i < 5; i++ {
		if err := pub.eng.Publish(stockQuote{Price: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitCount(t, &c, 5)
	if snap := pub.eng.Snapshot(); snap.Counters["published"] != 5 || snap.Gauges["attachments"] == 0 {
		t.Fatalf("pub stats %+v", snap)
	}
	if c := sub.eng.Snapshot().Counters; c["delivered"] != 5 {
		t.Fatalf("sub stats %+v", c)
	}
}

// frameTap records every frame a transport sends.
type frameTap struct {
	endpoint.Transport
	mu     sync.Mutex
	frames [][]byte
}

func (f *frameTap) Send(to endpoint.Address, frame []byte) error {
	f.mu.Lock()
	f.frames = append(f.frames, bytes.Clone(frame))
	f.mu.Unlock()
	return f.Transport.Send(to, frame)
}

// events decodes the frames sent so far that carry an event.
func (f *frameTap) events(t *testing.T) []*message.Message {
	t.Helper()
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []*message.Message
	for _, frame := range f.frames {
		m, err := message.Unmarshal(frame)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := m.Element("tps", "EventID"); ok {
			out = append(out, m)
		}
	}
	return out
}

// TestEventFrameCarriesIDAndData: an event leaves the publisher as its ID
// and its bytes inside the envelope the endpoint, the rendezvous and the
// wire write (ep:, rdv:, wire:), and a sampled event carries its trace
// element besides. The type is the group's, the codec gob's: neither
// crosses the wire.
func TestEventFrameCarriesIDAndData(t *testing.T) {
	for _, rate := range []float64{0, 1} {
		t.Run(fmt.Sprintf("TraceRate=%g", rate), func(t *testing.T) {
			rig := newRig(t)
			tap := &frameTap{}
			pub := rig.engineOn(rig.addPeerVia(func(tr endpoint.Transport) endpoint.Transport {
				tap.Transport = tr
				return tap
			}), engine.Config{TraceRate: rate})
			if err := pub.eng.EnsureType(pub.nodes["stock"]); err != nil {
				t.Fatal(err)
			}
			if !pub.eng.AwaitReady(pub.nodes["stock"], 1, 5*time.Second) {
				t.Fatal("not ready")
			}
			if err := pub.eng.Publish(stockQuote{Symbol: "FRAME", Price: 1}); err != nil {
				t.Fatal(err)
			}
			rig.net.WaitQuiesce(5 * time.Second)
			want := []string{"tps:Data", "tps:EventID"}
			if rate == 1 {
				want = append(want, "trc:Ev")
			}
			events := tap.events(t)
			if len(events) == 0 {
				t.Fatal("no event frame left the publisher")
			}
			for _, m := range events {
				var got []string
				for _, el := range m.Elements() {
					switch el.Namespace {
					case "ep", "rdv", "wire":
					default:
						got = append(got, el.Namespace+":"+el.Name)
					}
				}
				sort.Strings(got)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("an event frame carries %v beside its envelope, want %v", got, want)
				}
			}
		})
	}
}

// TestLegacyEventFrameIsDeliveredOnce: a frame that still names its type
// and codec (tps:Path, tps:Codec), as every publisher wrote them before
// events shed the two elements, is decoded and delivered, once however
// many copies of the event arrive.
func TestLegacyEventFrameIsDeliveredOnce(t *testing.T) {
	rig := newRig(t)
	sub := rig.addEngine()
	path := sub.nodes["stock"].Path()
	raw, g, pipe := rig.rawGroup(path)
	var c collector
	if _, err := sub.eng.Subscribe(sub.nodes["stock"], c.deliver, c.onError); err != nil {
		t.Fatal(err)
	}
	if n := sub.eng.Snapshot().Counters["advs_created"]; n != 0 {
		t.Fatalf("the subscriber created %d groups instead of attaching to the raw peer's", n)
	}
	if !sub.eng.AwaitReady(sub.nodes["stock"], 1, 5*time.Second) {
		t.Fatal("not ready")
	}
	out, err := g.Wire.CreateOutputPipe(pipe)
	if err != nil {
		t.Fatal(err)
	}
	want := stockQuote{Symbol: "OLD", Price: 9}
	blob, err := codec.Gob{}.Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	eventID := jid.NewMessage()
	for i := 0; i < 2; i++ {
		m := message.New(raw.ID())
		m.AddID("tps", "EventID", eventID)
		m.AddString("tps", "Path", path)
		m.AddString("tps", "Codec", "gob")
		m.AddBytes("tps", "Data", blob)
		if err := out.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	waitCount(t, &c, 1)
	rig.net.WaitQuiesce(5 * time.Second)
	if got := c.snapshot(); len(got) != 1 || got[0] != want {
		t.Fatalf("delivered %v, want %v once", got, want)
	}
	if n := c.errCount(); n != 0 {
		t.Fatalf("%d errors", n)
	}
}

// TestUnregisteredSubtypeIsAttachedOnceRegistered: a group advertised for
// a subtype this peer has not registered is not attached, since none of
// its events could be decoded here. The finder keeps considering it, so
// it is attached within a few rounds of the subtype's registration.
func TestUnregisteredSubtypeIsAttachedOnceRegistered(t *testing.T) {
	rig := newRig(t)
	pub := rig.addEngine()
	techPath := pub.nodes["tech"].Path()
	if err := pub.eng.EnsureType(pub.nodes["tech"]); err != nil {
		t.Fatal(err)
	}

	reg := typereg.New()
	quoteNode, err := reg.Register(reflect.TypeOf((*quote)(nil)).Elem(), nil)
	if err != nil {
		t.Fatal(err)
	}
	stock, err := reg.Register(reflect.TypeOf(stockQuote{}), quoteNode)
	if err != nil {
		t.Fatal(err)
	}
	const interval = 100 * time.Millisecond
	p := rig.addPeer()
	sub, err := engine.New(engine.Config{Peer: p, Registry: reg, FindTimeout: 400 * time.Millisecond, FindInterval: interval})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sub.Close)
	var c collector
	if _, err := sub.Subscribe(stock, c.deliver, c.onError); err != nil {
		t.Fatal(err)
	}
	// The advertisement reached the subscriber, and rounds went by.
	deadline := time.Now().Add(5 * time.Second)
	for len(p.Discovery().GetLocalAdvertisements(engine.PSPrefix+techPath)) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the subtype's advertisement never reached the subscriber")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if sub.AwaitReady(stock, 2, 5*interval) {
		t.Fatal("attached a group of a subtype this peer cannot decode")
	}

	if _, err := reg.Register(reflect.TypeOf(techQuote{}), stock); err != nil {
		t.Fatal(err)
	}
	if !sub.AwaitReady(stock, 2, 20*interval) {
		t.Fatal("the subtype's group was not attached after its registration")
	}
	if !pub.eng.AwaitReady(pub.nodes["tech"], 1, 5*time.Second) || !sub.AwaitReady(stock, 2, 5*time.Second) {
		t.Fatal("not ready")
	}
	if err := pub.eng.Publish(techQuote{stockQuote: stockQuote{Symbol: "T"}, PE: 12}); err != nil {
		t.Fatal(err)
	}
	waitCount(t, &c, 1)
}

// TestAwaitReadyStartsOneFinderRound: waiting for readiness against a
// rendezvous that never answers asks the finder for one round, not one
// per poll; lease grants and the FindInterval ticker pace the rest.
func TestAwaitReadyStartsOneFinderRound(t *testing.T) {
	n := netsim.New(netsim.Config{})
	t.Cleanup(n.Close)
	node, err := n.AddNode("edge")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddNode("silent"); err != nil {
		t.Fatal(err)
	}
	p, err := peer.New(peer.Config{
		Name:       "edge",
		Rendezvous: rendezvous.Config{Seeds: []endpoint.Address{"mem://silent"}},
	}, memnet.New(node))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	reg, nodes := newRegistry(t)
	eng, err := engine.New(engine.Config{Peer: p, Registry: reg, FindInterval: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	rounds := func() int64 { return eng.Snapshot().Counters["find_rounds"] }
	before := rounds()
	if eng.AwaitReady(nodes["stock"], 1, 500*time.Millisecond) {
		t.Fatal("ready without a rendezvous")
	}
	if grew := rounds() - before; grew > 2 {
		t.Fatalf("AwaitReady started %d finder rounds in 500 ms, want at most 2", grew)
	}
}
