package engine_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/tps-p2p/tps/internal/core/codec"
	"github.com/tps-p2p/tps/internal/core/engine"
	"github.com/tps-p2p/tps/internal/core/typereg"
	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/message"
	"github.com/tps-p2p/tps/internal/jxta/peer"
	"github.com/tps-p2p/tps/internal/jxta/rendezvous"
	"github.com/tps-p2p/tps/internal/jxta/transport/memnet"
	"github.com/tps-p2p/tps/internal/jxta/wire"
	"github.com/tps-p2p/tps/internal/netsim"
	"github.com/tps-p2p/tps/internal/obs"
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

// rigFindInterval is the replay retry interval of the rig's engines.
const rigFindInterval = 100 * time.Millisecond

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
// replay retry interval and whatever else cfg sets.
func (r *testRig) engineOn(p *peer.Peer, cfg engine.Config) *testEnginePeer {
	r.t.Helper()
	reg, nodes := newRegistry(r.t)
	cfg.Peer, cfg.Registry = p, reg
	cfg.FindInterval = rigFindInterval
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

	// Publisher joins the type's group (the paper's initialization
	// phase).
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
	// The publisher's EnsureType joins the group the subscriber joined:
	// one group per type (minimization), found by nobody.
	if err := pub.eng.EnsureType(pub.nodes["stock"]); err != nil {
		t.Fatal(err)
	}
	oneGroup(t, sub.nodes["stock"].Path(), sub, pub)
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
	// The root and its three subtypes: one group each.
	if !subAll.eng.AwaitReady(subAll.nodes["quote"], 4, 10*time.Second) {
		t.Fatal("root subscriber did not attach to all subtype groups")
	}
	if !subTech.eng.AwaitReady(subTech.nodes["tech"], 1, 5*time.Second) {
		t.Fatal("leaf subscriber not ready")
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

	// Both ensure the same type at once: both compute its group, so
	// there is nothing to race for and one group to join.
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
	oneGroup(t, a.nodes["stock"].Path(), a, b)

	var c collector
	if _, err := b.eng.Subscribe(b.nodes["stock"], c.deliver, c.onError); err != nil {
		t.Fatal(err)
	}
	// The publishes below are one-shot: both groups must hold a lease
	// before the first, or early events evaporate before the mesh is
	// reachable.
	if !a.eng.AwaitReady(a.nodes["stock"], 1, 10*time.Second) {
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
	time.Sleep(300 * time.Millisecond)
	if c.count() != total {
		t.Fatalf("delivered %d, want exactly %d", c.count(), total)
	}
}

// oneGroup checks that each engine's peer is in the group TypeGroup
// names for the path: its rendezvous service holds one lease for it,
// with the rig's one rendezvous.
func oneGroup(t *testing.T, path string, peers ...*testEnginePeer) {
	t.Helper()
	group := engine.TypeGroup(path).String()
	for _, p := range peers {
		rdv := p.peer.Rendezvous()
		if !rdv.AwaitConnected(group, 5*time.Second) {
			t.Fatalf("%s is not in the group of %s", p.peer.Name(), path)
		}
		n := 0
		for _, e := range rdv.PeersView() {
			if e.Kind == obs.PeerRendezvous && slices.Contains(e.Groups, group) {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("%s holds %d leases for the group of %s", p.peer.Name(), n, path)
		}
	}
}

// rawGroup starts a peer that joins the group of the type path with a
// wire service of its own, as a publisher did before the engine was its
// type's wire, and holds its lease: a peer that speaks the group's wire
// without an engine. It returns the wire and the pipe ID its frames
// name, PSPrefix + path as a pipe.
func (r *testRig) rawGroup(path string) (*peer.Peer, *wire.Service, jid.ID) {
	r.t.Helper()
	raw := r.addPeer()
	param := engine.TypeGroup(path).String()
	w, err := wire.New(raw.Rendezvous(), wire.Config{Group: param})
	if err != nil {
		r.t.Fatal(err)
	}
	r.t.Cleanup(w.Close)
	raw.Rendezvous().Join(param)
	if !raw.Rendezvous().AwaitConnected(param, 5*time.Second) {
		r.t.Fatalf("the raw peer never leased its group for %s", path)
	}
	return raw, w, jid.Named(jid.KindPipe, engine.PSPrefix+path)
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
	s2, err := sub.eng.Subscribe(sub.nodes["stock"], c2.deliver, c2.onError)
	if err != nil {
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

	// Remove the last one: no event is received anymore.
	sub.eng.Unsubscribe(s2)
	if err := pub.eng.Publish(stockQuote{Symbol: "THREE"}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	if c2.count() != 2 {
		t.Fatalf("callback got %d events after its Unsubscribe", c2.count())
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
	eng, err := engine.New(engine.Config{Peer: p, Registry: reg, FindInterval: rigFindInterval})
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

// TestOwnEventFrameIsADuplicate: a publish delivers its value to the
// local subscribers without a frame, and its rendezvous service marks
// the message ID — the event's — in its hop filter as it propagates it,
// so the frame of that event, when it does arrive at its publisher (a
// rendezvous replaying its log), is dropped there as a duplicate, not
// decoded and delivered again.
func TestOwnEventFrameIsADuplicate(t *testing.T) {
	rig := newRig(t)
	tap := &frameTap{}
	pub := rig.engineOn(rig.addPeerVia(func(tr endpoint.Transport) endpoint.Transport {
		tap.Transport = tr
		return tap
	}), engine.Config{})
	var c collector
	if _, err := pub.eng.Subscribe(pub.nodes["stock"], c.deliver, c.onError); err != nil {
		t.Fatal(err)
	}
	if !pub.eng.AwaitReady(pub.nodes["stock"], 1, 5*time.Second) {
		t.Fatal("not ready")
	}
	if err := pub.eng.Publish(stockQuote{Symbol: "OWN", Price: 1}); err != nil {
		t.Fatal(err)
	}
	waitCount(t, &c, 1)
	rig.net.WaitQuiesce(5 * time.Second)
	events := tap.events(t)
	if len(events) != 1 {
		t.Fatalf("the publisher sent %d event frames, want 1", len(events))
	}
	frame, err := events[0].Marshal()
	if err != nil {
		t.Fatal(err)
	}
	dups := pub.peer.Rendezvous().Snapshot().Counters["duplicates"]
	tap.receive(frame)
	delivered := pub.eng.Snapshot().Counters["delivered"]
	if dropped := pub.peer.Rendezvous().Snapshot().Counters["duplicates"] - dups; c.count() != 1 || delivered != 1 || dropped != 1 {
		t.Fatalf("own event frame: %d deliveries, %d delivered, %d dropped by the hop filter", c.count(), delivered, dropped)
	}
}

// TestEventFrameReachesTheEngineThroughTheHopFilterAlone: a group has
// one reader, on the rendezvous service, past its hop filter. A valid
// event frame addressed to the endpoint service the event names
// (EventService, the group) finds no handler there: it is dropped and
// counted, however often it comes. The same message propagated into the
// group is delivered, once.
func TestEventFrameReachesTheEngineThroughTheHopFilterAlone(t *testing.T) {
	rig := newRig(t)
	tap := &frameTap{}
	sub := rig.engineOn(rig.addPeerVia(func(tr endpoint.Transport) endpoint.Transport {
		tap.Transport = tr
		return tap
	}), engine.Config{})
	var c collector
	if _, err := sub.eng.Subscribe(sub.nodes["stock"], c.deliver, c.onError); err != nil {
		t.Fatal(err)
	}
	if !sub.eng.AwaitReady(sub.nodes["stock"], 1, 5*time.Second) {
		t.Fatal("not ready")
	}
	rig.net.WaitQuiesce(5 * time.Second)
	blob, err := codec.Gob{}.Encode(stockQuote{Symbol: "PAST", Price: 1})
	if err != nil {
		t.Fatal(err)
	}
	param := engine.TypeGroup(sub.nodes["stock"].Path()).String()
	m := message.New(jid.FromSeed(jid.KindPeer, 77))
	// Numbered, as its publisher's rendezvous service numbers it.
	m.ID = jid.NumberedMessage(jid.NewStream(), 1)
	m.AddBytes("tps", "Data", blob)
	other := endpoint.New(m.Src)
	receive := func(svc, param string) {
		t.Helper()
		frame, err := other.EncodeFrame(svc, param, m)
		if err != nil {
			t.Fatal(err)
		}
		for range 2 {
			tap.receive(bytes.Clone(frame))
		}
	}
	counters := func() map[string]int64 { return sub.peer.Endpoint().Snapshot().Counters }
	dropped := counters()["dropped"]
	receive(engine.EventService, param)
	delivered := sub.eng.Snapshot().Counters["delivered"]
	if n, d := c.count(), counters()["dropped"]-dropped; n != 0 || delivered != 0 || d != 2 {
		t.Fatalf("an event frame sent twice past the hop filter: %d deliveries, %d delivered, %d dropped; want 0, 0 and 2", n, delivered, d)
	}
	m.AddString("rdv", "Op", "prop")
	m.AddString("rdv", "DSvc", engine.EventService)
	m.AddString("rdv", "DParam", param)
	receive(rendezvous.ServiceName, "")
	waitCount(t, &c, 1)
	if n := c.count(); n != 1 {
		t.Fatalf("an event frame propagated twice: %d deliveries, want 1", n)
	}
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

// frameTap records every frame a transport sends, and keeps the
// endpoint's receiver, so a test can hand the peer a frame as if it had
// arrived.
type frameTap struct {
	endpoint.Transport
	mu      sync.Mutex
	frames  [][]byte
	receive func(frame []byte)
}

func (f *frameTap) SetReceiver(receive func(frame []byte)) {
	f.receive = receive
	f.Transport.SetReceiver(receive)
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
		if _, ok := m.Element("tps", "Data"); ok {
			out = append(out, m)
		}
	}
	return out
}

// TestEventFrameCarriesIDAndData: an event leaves the publisher as its
// bytes inside a message whose ID is the event's, in the envelope the
// endpoint and the rendezvous write (ep:, rdv:), and a sampled event
// carries its trace element besides. The type is the group's, the codec
// gob's, the ID the message's, and the group names no pipe: none of the
// four crosses the wire as an element of its own.
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
			want := []string{"tps:Data"}
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
					case "ep", "rdv":
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

// TestLegacyEventFrameIsDeliveredOnce: a frame that still carries its
// event ID, type and codec (tps:EventID, tps:Path, tps:Codec), as every
// publisher wrote them before events shed the three elements, is
// decoded and delivered, once however many copies of its message
// arrive: the copies share the message ID, which is what the hop filter
// drops a duplicate by.
func TestLegacyEventFrameIsDeliveredOnce(t *testing.T) {
	rig := newRig(t)
	sub := rig.addEngine()
	path := sub.nodes["stock"].Path()
	raw, w, pipe := rig.rawGroup(path)
	var c collector
	if _, err := sub.eng.Subscribe(sub.nodes["stock"], c.deliver, c.onError); err != nil {
		t.Fatal(err)
	}
	if !sub.eng.AwaitReady(sub.nodes["stock"], 1, 5*time.Second) {
		t.Fatal("not ready")
	}
	out, err := w.CreateOutputPipe(pipe)
	if err != nil {
		t.Fatal(err)
	}
	want := stockQuote{Symbol: "OLD", Price: 9}
	blob, err := codec.Gob{}.Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	m := message.New(raw.ID())
	m.AddID("tps", "EventID", jid.NewMessage())
	m.AddString("tps", "Path", path)
	m.AddString("tps", "Codec", "gob")
	m.AddBytes("tps", "Data", blob)
	for i := 0; i < 2; i++ {
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

// TestUnregisteredSubtypeIsAttachedOnceRegistered: a subscriber holds no
// group for a subtype it has not registered, since none of its events
// could be decoded here. Registering the subtype joins its group at
// once, through the registry's listener: with the replay loop ticking
// every 5 s, the group is ready within a second, and a subtype event
// published into it is delivered.
func TestUnregisteredSubtypeIsAttachedOnceRegistered(t *testing.T) {
	rig := newRig(t)
	pub := rig.addEngine()
	if err := pub.eng.EnsureType(pub.nodes["tech"]); err != nil {
		t.Fatal(err)
	}
	if !pub.eng.AwaitReady(pub.nodes["tech"], 1, 5*time.Second) {
		t.Fatal("publisher not ready")
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
	p := rig.addPeer()
	sub, err := engine.New(engine.Config{Peer: p, Registry: reg, FindInterval: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sub.Close)
	var c collector
	if _, err := sub.Subscribe(stock, c.deliver, c.onError); err != nil {
		t.Fatal(err)
	}
	if !sub.AwaitReady(stock, 1, 5*time.Second) {
		t.Fatal("subscriber not ready")
	}
	if v := sub.SubscriptionsView(); len(v) != 1 || v[0].Attachments != 1 {
		t.Fatalf("subscriptions %+v, want stock's with its own attachment alone: joined the group of a subtype this peer cannot decode", v)
	}

	if _, err := reg.Register(reflect.TypeOf(techQuote{}), stock); err != nil {
		t.Fatal(err)
	}
	if !sub.AwaitReady(stock, 2, time.Second) {
		t.Fatal("the subtype's group was not ready within a second of its registration")
	}
	if err := pub.eng.Publish(techQuote{stockQuote: stockQuote{Symbol: "T"}, PE: 12}); err != nil {
		t.Fatal(err)
	}
	waitCount(t, &c, 1)
}

// TestFirstPublishDoesNotWait: the first Publish of a type on a seeded
// engine with the default timings joins the type's group and sends; it
// searches for nothing, so it returns at once.
func TestFirstPublishDoesNotWait(t *testing.T) {
	rig := newRig(t)
	p := rig.addPeer()
	reg, _ := newRegistry(t)
	eng, err := engine.New(engine.Config{Peer: p, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	start := time.Now()
	if err := eng.Publish(stockQuote{Symbol: "NOW", Price: 1}); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took >= 100*time.Millisecond {
		t.Fatalf("the first Publish took %v, want under 100ms", took.Round(time.Millisecond))
	}
}

// TestIdleClusterSendsNoDiscovery: a rendezvous, a publisher and a
// subscriber, attached and leased, then left alone for five replay
// intervals. Neither edge sends a frame to the discovery service: an
// engine has nothing to search for.
func TestIdleClusterSendsNoDiscovery(t *testing.T) {
	rig := newRig(t)
	var taps [2]*frameTap
	var edges [2]*testEnginePeer
	for i := range edges {
		tap := &frameTap{}
		edges[i] = rig.engineOn(rig.addPeerVia(func(tr endpoint.Transport) endpoint.Transport {
			tap.Transport = tr
			return tap
		}), engine.Config{})
		taps[i] = tap
	}
	pub, sub := edges[0], edges[1]
	var c collector
	if _, err := sub.eng.Subscribe(sub.nodes["stock"], c.deliver, c.onError); err != nil {
		t.Fatal(err)
	}
	if err := pub.eng.EnsureType(pub.nodes["stock"]); err != nil {
		t.Fatal(err)
	}
	if !pub.eng.AwaitReady(pub.nodes["stock"], 1, 5*time.Second) || !sub.eng.AwaitReady(sub.nodes["stock"], 2, 5*time.Second) {
		t.Fatal("not ready")
	}
	time.Sleep(5 * rigFindInterval)
	rig.net.WaitQuiesce(5 * time.Second)
	for i, tap := range taps {
		tap.mu.Lock()
		for _, frame := range tap.frames {
			if bytes.Contains(frame, []byte("jxta.discovery")) {
				t.Errorf("%s sent a frame to the discovery service", edges[i].peer.Name())
				break
			}
		}
		tap.mu.Unlock()
	}
}
