package tps_test

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	tps "github.com/tps-p2p/tps"
	"github.com/tps-p2p/tps/internal/jxta/transport/memnet"
	"github.com/tps-p2p/tps/internal/netsim"
	"github.com/tps-p2p/tps/internal/obs"
)

// SkiRental is the paper's running example type (§4.3.1).
type SkiRental struct {
	Shop         string
	Brand        string
	Price        float64
	NumberOfDays float64
}

// String gives the console rendering used by the paper's callback.
func (r SkiRental) String() string {
	return fmt.Sprintf("%s: %s at %.2f for %.0f days", r.Shop, r.Brand, r.Price, r.NumberOfDays)
}

// Offer is an interface root used for the Figure 7 subtype tests.
type Offer interface{ Seller() string }

// Seller implements Offer for SkiRental.
func (r SkiRental) Seller() string { return r.Shop }

// BikeRental is a second Offer implementation.
type BikeRental struct {
	Shop  string
	Price float64
}

// Seller implements Offer.
func (r BikeRental) Seller() string { return r.Shop }

// rig is a netsim-backed fleet of TPS platforms around one rendezvous.
type rig struct {
	t   *testing.T
	net *netsim.Network
	n   int
}

func newRig(t *testing.T) *rig {
	t.Helper()
	n := netsim.New(netsim.Config{DefaultLink: netsim.Link{Latency: time.Millisecond}})
	t.Cleanup(n.Close)
	r := &rig{t: t, net: n}
	r.platform(tps.Config{Name: "rdv", Rendezvous: true, LeaseTTL: 2 * time.Second})
	return r
}

// platform builds one TPS platform on a fresh netsim node.
func (r *rig) platform(cfg tps.Config) *tps.Platform {
	r.t.Helper()
	r.n++
	name := cfg.Name
	if name == "" {
		name = fmt.Sprintf("peer%d", r.n)
		cfg.Name = name
	}
	node, err := r.net.AddNode(name)
	if err != nil {
		r.t.Fatal(err)
	}
	if cfg.FindTimeout == 0 {
		cfg.FindTimeout = 400 * time.Millisecond
	}
	if cfg.FindInterval == 0 {
		cfg.FindInterval = 100 * time.Millisecond
	}
	if cfg.LeaseTTL == 0 {
		cfg.LeaseTTL = 2 * time.Second
	}
	p, err := tps.NewPlatform(cfg, tps.WithTransport(memnet.New(node)))
	if err != nil {
		r.t.Fatal(err)
	}
	r.t.Cleanup(p.Close)
	return p
}

// edge builds an ordinary platform seeded with the rig's rendezvous.
func (r *rig) edge() *tps.Platform {
	return r.platform(tps.Config{Seeds: []string{"mem://rdv"}})
}

// gather collects received events.
type gather[T any] struct {
	mu     sync.Mutex
	events []T
}

func (g *gather[T]) Handle(ev T) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.events = append(g.events, ev)
	return nil
}

func (g *gather[T]) count() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.events)
}

func (g *gather[T]) snapshot() []T {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]T(nil), g.events...)
}

func waitN[T any](t *testing.T, g *gather[T], n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for g.count() < n {
		if time.Now().After(deadline) {
			t.Fatalf("timeout: %d of %d events", g.count(), n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestSkiRentalEndToEnd(t *testing.T) {
	r := newRig(t)
	pubP, subP := r.edge(), r.edge()
	if err := tps.Register[SkiRental](pubP); err != nil {
		t.Fatal(err)
	}
	if err := tps.Register[SkiRental](subP); err != nil {
		t.Fatal(err)
	}

	subEng, err := tps.NewEngine[SkiRental](subP)
	if err != nil {
		t.Fatal(err)
	}
	defer subEng.Close()
	subInt, err := subEng.NewInterface(nil)
	if err != nil {
		t.Fatal(err)
	}
	var g gather[SkiRental]
	if err := subInt.Subscribe(&g, nil); err != nil {
		t.Fatal(err)
	}

	pubEng, err := tps.NewEngine[SkiRental](pubP)
	if err != nil {
		t.Fatal(err)
	}
	defer pubEng.Close()
	pubInt, err := pubEng.NewInterface(nil)
	if err != nil {
		t.Fatal(err)
	}
	offer := SkiRental{Shop: "XTremShop", Brand: "Salomon", Price: 14, NumberOfDays: 100}
	if err := pubInt.Publish(offer); err != nil {
		t.Fatal(err)
	}
	if !pubEng.AwaitReady(1, 5*time.Second) {
		t.Fatal("publisher never ready")
	}
	// The first publish may have predated the subscriber's attachment;
	// publish once more after readiness.
	if err := pubInt.Publish(offer); err != nil {
		t.Fatal(err)
	}
	waitN(t, &g, 1)
	got := g.snapshot()[0]
	if got != offer {
		t.Fatalf("got %+v", got)
	}
	if len(pubInt.ObjectsSent()) != 2 {
		t.Fatalf("ObjectsSent = %d", len(pubInt.ObjectsSent()))
	}
	if n := len(subInt.ObjectsReceived()); n < 1 {
		t.Fatalf("ObjectsReceived = %d", n)
	}
}

func TestSubscribeManyMultipleCallbacks(t *testing.T) {
	// The paper's method (3): display events on a console AND sketch them
	// in a GUI at the same time.
	r := newRig(t)
	pubP, subP := r.edge(), r.edge()
	for _, p := range []*tps.Platform{pubP, subP} {
		if err := tps.Register[SkiRental](p); err != nil {
			t.Fatal(err)
		}
	}
	subEng, err := tps.NewEngine[SkiRental](subP)
	if err != nil {
		t.Fatal(err)
	}
	defer subEng.Close()
	subInt, err := subEng.NewInterface(nil)
	if err != nil {
		t.Fatal(err)
	}
	var console, gui gather[SkiRental]
	err = subInt.SubscribeMany(
		[]tps.CallBack[SkiRental]{&console, &gui},
		[]tps.ExceptionHandler{nil, nil},
	)
	if err != nil {
		t.Fatal(err)
	}

	pubEng, err := tps.NewEngine[SkiRental](pubP)
	if err != nil {
		t.Fatal(err)
	}
	defer pubEng.Close()
	pubInt, err := pubEng.NewInterface(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !pubEng.AwaitReady(1, 5*time.Second) {
		t.Fatal("not ready")
	}
	if err := pubInt.Publish(SkiRental{Shop: "S"}); err != nil {
		t.Fatal(err)
	}
	waitN(t, &console, 1)
	waitN(t, &gui, 1)

	// Mismatched arrays are rejected.
	if err := subInt.SubscribeMany([]tps.CallBack[SkiRental]{&console}, nil); !errors.Is(err, tps.ErrMismatchedArrays) {
		t.Fatalf("err = %v", err)
	}
}

func TestUnsubscribeSpecificCallback(t *testing.T) {
	r := newRig(t)
	pubP, subP := r.edge(), r.edge()
	for _, p := range []*tps.Platform{pubP, subP} {
		if err := tps.Register[SkiRental](p); err != nil {
			t.Fatal(err)
		}
	}
	subEng, _ := tps.NewEngine[SkiRental](subP)
	defer subEng.Close()
	subInt, _ := subEng.NewInterface(nil)
	var keep, drop gather[SkiRental]
	if err := subInt.Subscribe(&keep, nil); err != nil {
		t.Fatal(err)
	}
	if err := subInt.Subscribe(&drop, nil); err != nil {
		t.Fatal(err)
	}

	pubEng, _ := tps.NewEngine[SkiRental](pubP)
	defer pubEng.Close()
	pubInt, _ := pubEng.NewInterface(nil)
	if !pubEng.AwaitReady(1, 5*time.Second) {
		t.Fatal("not ready")
	}
	if err := pubInt.Publish(SkiRental{Shop: "one"}); err != nil {
		t.Fatal(err)
	}
	waitN(t, &keep, 1)
	waitN(t, &drop, 1)

	if err := subInt.Unsubscribe(&drop, nil); err != nil {
		t.Fatal(err)
	}
	if err := subInt.Unsubscribe(&drop, nil); !errors.Is(err, tps.ErrNotSubscribed) {
		t.Fatalf("double unsubscribe: %v", err)
	}
	if err := pubInt.Publish(SkiRental{Shop: "two"}); err != nil {
		t.Fatal(err)
	}
	waitN(t, &keep, 2)
	time.Sleep(100 * time.Millisecond)
	if drop.count() != 1 {
		t.Fatalf("dropped callback still received: %d", drop.count())
	}

	if err := subInt.UnsubscribeAll(); err != nil {
		t.Fatal(err)
	}
	if err := pubInt.Publish(SkiRental{Shop: "three"}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	if keep.count() != 2 {
		t.Fatalf("callback received after UnsubscribeAll: %d", keep.count())
	}
}

// TestUnsubscribeLastTearsDownCore asserts that removing the final
// (callback, handler) pair via Unsubscribe stops deliveries entirely —
// ObjectsReceived must not keep growing on an interface nobody listens
// on — and that a later Subscribe revives the flow.
func TestUnsubscribeLastTearsDownCore(t *testing.T) {
	r := newRig(t)
	pubP, subP := r.edge(), r.edge()
	for _, p := range []*tps.Platform{pubP, subP} {
		if err := tps.Register[SkiRental](p); err != nil {
			t.Fatal(err)
		}
	}
	subEng, _ := tps.NewEngine[SkiRental](subP)
	defer subEng.Close()
	subInt, _ := subEng.NewInterface(nil)
	var g gather[SkiRental]
	if err := subInt.Subscribe(&g, nil); err != nil {
		t.Fatal(err)
	}

	pubEng, _ := tps.NewEngine[SkiRental](pubP)
	defer pubEng.Close()
	pubInt, _ := pubEng.NewInterface(nil)
	if !pubEng.AwaitReady(1, 5*time.Second) {
		t.Fatal("not ready")
	}
	if err := pubInt.Publish(SkiRental{Shop: "one"}); err != nil {
		t.Fatal(err)
	}
	waitN(t, &g, 1)

	// Remove the only pair: the core subscription must go with it.
	if err := subInt.Unsubscribe(&g, nil); err != nil {
		t.Fatal(err)
	}
	if err := pubInt.Publish(SkiRental{Shop: "two"}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	if got := len(subInt.ObjectsReceived()); got != 1 {
		t.Fatalf("interface kept receiving after last Unsubscribe: %d events", got)
	}

	// Resubscribing revives delivery.
	if err := subInt.Subscribe(&g, nil); err != nil {
		t.Fatal(err)
	}
	if err := pubInt.Publish(SkiRental{Shop: "three"}); err != nil {
		t.Fatal(err)
	}
	waitN(t, &g, 2)
}

func TestCriteriaContentFilter(t *testing.T) {
	r := newRig(t)
	pubP, subP := r.edge(), r.edge()
	for _, p := range []*tps.Platform{pubP, subP} {
		if err := tps.Register[SkiRental](p); err != nil {
			t.Fatal(err)
		}
	}
	subEng, _ := tps.NewEngine[SkiRental](subP)
	defer subEng.Close()
	// Content-based filtering on top of TPS (§3.1): only cheap offers.
	subInt, err := subEng.NewInterface(func(rental SkiRental) bool { return rental.Price < 20 })
	if err != nil {
		t.Fatal(err)
	}
	var g gather[SkiRental]
	if err := subInt.Subscribe(&g, nil); err != nil {
		t.Fatal(err)
	}

	pubEng, _ := tps.NewEngine[SkiRental](pubP)
	defer pubEng.Close()
	pubInt, _ := pubEng.NewInterface(nil)
	if !pubEng.AwaitReady(1, 5*time.Second) {
		t.Fatal("not ready")
	}
	for _, price := range []float64{10, 50, 15, 99} {
		if err := pubInt.Publish(SkiRental{Shop: "S", Price: price}); err != nil {
			t.Fatal(err)
		}
	}
	waitN(t, &g, 2)
	time.Sleep(200 * time.Millisecond)
	if g.count() != 2 {
		t.Fatalf("criteria leaked: %d events", g.count())
	}
	for _, ev := range g.snapshot() {
		if ev.Price >= 20 {
			t.Fatalf("expensive offer leaked: %+v", ev)
		}
	}
}

func TestExceptionHandlerReceivesErrors(t *testing.T) {
	r := newRig(t)
	pubP, subP := r.edge(), r.edge()
	for _, p := range []*tps.Platform{pubP, subP} {
		if err := tps.Register[SkiRental](p); err != nil {
			t.Fatal(err)
		}
	}
	subEng, _ := tps.NewEngine[SkiRental](subP)
	defer subEng.Close()
	subInt, _ := subEng.NewInterface(nil)
	var mu sync.Mutex
	var caught []error
	cb := tps.CallBackFunc[SkiRental](func(SkiRental) error { return errors.New("cannot render offer") })
	exh := tps.ExceptionHandlerFunc(func(err error) {
		mu.Lock()
		caught = append(caught, err)
		mu.Unlock()
	})
	if err := subInt.Subscribe(cb, exh); err != nil {
		t.Fatal(err)
	}

	pubEng, _ := tps.NewEngine[SkiRental](pubP)
	defer pubEng.Close()
	pubInt, _ := pubEng.NewInterface(nil)
	if !pubEng.AwaitReady(1, 5*time.Second) {
		t.Fatal("not ready")
	}
	if err := pubInt.Publish(SkiRental{}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(caught)
		mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("exception handler never fired")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestInterfaceSubtypeDelivery(t *testing.T) {
	// Figure 7 with Go subtyping: subscribing to the Offer interface
	// delivers SkiRental and BikeRental instances.
	r := newRig(t)
	pubP, subP := r.edge(), r.edge()
	for _, p := range []*tps.Platform{pubP, subP} {
		if err := tps.Register[Offer](p); err != nil {
			t.Fatal(err)
		}
		if err := tps.RegisterSub[SkiRental, Offer](p); err != nil {
			t.Fatal(err)
		}
		if err := tps.RegisterSub[BikeRental, Offer](p); err != nil {
			t.Fatal(err)
		}
	}
	subEng, err := tps.NewEngine[Offer](subP)
	if err != nil {
		t.Fatal(err)
	}
	defer subEng.Close()
	subInt, _ := subEng.NewInterface(nil)
	var g gather[Offer]
	if err := subInt.Subscribe(&g, nil); err != nil {
		t.Fatal(err)
	}

	// The publishers use concrete-type engines.
	skiEng, err := tps.NewEngine[SkiRental](pubP)
	if err != nil {
		t.Fatal(err)
	}
	defer skiEng.Close()
	skiInt, _ := skiEng.NewInterface(nil)
	bikeEng, err := tps.NewEngine[BikeRental](pubP)
	if err != nil {
		t.Fatal(err)
	}
	defer bikeEng.Close()
	bikeInt, _ := bikeEng.NewInterface(nil)

	// Nobody has advertised the concrete types yet; announce them.
	if err := skiEng.Announce(); err != nil {
		t.Fatal(err)
	}
	if err := bikeEng.Announce(); err != nil {
		t.Fatal(err)
	}
	if !skiEng.AwaitReady(1, 5*time.Second) || !bikeEng.AwaitReady(1, 5*time.Second) {
		t.Fatal("publishers not ready")
	}
	// And the root subscriber must have joined both subtype groups
	// before events flow, or early events are lost to decoupling.
	if !subEng.AwaitReady(2, 10*time.Second) {
		t.Fatal("subscriber did not attach to subtype groups")
	}
	if err := skiInt.Publish(SkiRental{Shop: "ski-shop", Price: 10}); err != nil {
		t.Fatal(err)
	}
	if err := bikeInt.Publish(BikeRental{Shop: "bike-shop", Price: 5}); err != nil {
		t.Fatal(err)
	}
	waitN(t, &g, 2)
	sellers := map[string]bool{}
	for _, ev := range g.snapshot() {
		sellers[ev.Seller()] = true
	}
	if !sellers["ski-shop"] || !sellers["bike-shop"] {
		t.Fatalf("sellers = %v", sellers)
	}
}

func TestJSONCodecPlatform(t *testing.T) {
	r := newRig(t)
	pubP := r.platform(tps.Config{Seeds: []string{"mem://rdv"}, Codec: "json"})
	subP := r.platform(tps.Config{Seeds: []string{"mem://rdv"}, Codec: "json"})
	for _, p := range []*tps.Platform{pubP, subP} {
		if err := tps.Register[SkiRental](p); err != nil {
			t.Fatal(err)
		}
	}
	subEng, _ := tps.NewEngine[SkiRental](subP)
	defer subEng.Close()
	subInt, _ := subEng.NewInterface(nil)
	var g gather[SkiRental]
	if err := subInt.Subscribe(&g, nil); err != nil {
		t.Fatal(err)
	}
	pubEng, _ := tps.NewEngine[SkiRental](pubP)
	defer pubEng.Close()
	pubInt, _ := pubEng.NewInterface(nil)
	if !pubEng.AwaitReady(1, 5*time.Second) {
		t.Fatal("not ready")
	}
	want := SkiRental{Shop: "json-shop", Brand: "K2", Price: 33, NumberOfDays: 2}
	if err := pubInt.Publish(want); err != nil {
		t.Fatal(err)
	}
	waitN(t, &g, 1)
	if g.snapshot()[0] != want {
		t.Fatalf("got %+v", g.snapshot()[0])
	}
}

func TestPSErrorWrapping(t *testing.T) {
	if _, err := tps.NewPlatform(tps.Config{Name: "no-transport"}); err == nil {
		t.Fatal("platform without transports created")
	} else {
		var pse *tps.PSError
		if !errors.As(err, &pse) {
			t.Fatalf("error %T is not a PSError", err)
		}
		if pse.Op != "platform" {
			t.Fatalf("op = %q", pse.Op)
		}
	}
	r := newRig(t)
	p := r.edge()
	if err := tps.RegisterSub[SkiRental, Offer](p); err == nil {
		t.Fatal("RegisterSub with unregistered parent succeeded")
	}
	if err := tps.Register[SkiRental](p); err != nil {
		t.Fatal(err)
	}
	if err := tps.Register[SkiRental](p); err == nil {
		t.Fatal("duplicate Register succeeded")
	}
}

func TestPlatformAccessors(t *testing.T) {
	r := newRig(t)
	p := r.edge()
	if p.PeerID() == "" {
		t.Fatal("empty peer ID")
	}
	if got := p.Addresses(); len(got) != 1 || got[0][:6] != "mem://" {
		t.Fatalf("addresses %v", got)
	}
	if !p.AwaitRendezvous(5 * time.Second) {
		t.Fatal("edge never reached the rendezvous")
	}
}

// TestPlatformCloseStopsEngines closes a platform without closing the
// engine created on it first: the engine must be closed with it — its
// interface refuses to publish and its finder and replay loops are gone,
// not left ticking against a closed peer.
func TestPlatformCloseStopsEngines(t *testing.T) {
	wan := netsim.New(netsim.Config{})
	defer wan.Close()
	base := runtime.NumGoroutine()

	node, err := wan.AddNode("solo")
	if err != nil {
		t.Fatal(err)
	}
	p, err := tps.NewPlatform(tps.Config{Name: "solo", FindTimeout: 50 * time.Millisecond, FindInterval: 20 * time.Millisecond},
		tps.WithTransport(memnet.New(node)))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := tps.NewEngine[SkiRental](p)
	if err != nil {
		t.Fatal(err)
	}
	intf, _ := eng.NewInterface(nil)
	var g gather[SkiRental]
	if err := intf.Subscribe(&g, nil); err != nil {
		t.Fatal(err)
	}
	if err := intf.Publish(SkiRental{Shop: "open"}); err != nil {
		t.Fatal(err)
	}
	waitN(t, &g, 1)

	p.Close()
	if err := intf.Publish(SkiRental{Shop: "closed"}); err == nil {
		t.Fatal("publish succeeded on an engine whose platform is closed")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines outlive Platform.Close (baseline %d):\n%s",
				runtime.NumGoroutine()-base, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// bootTCP starts a platform on a loopback TCP port — the shipped
// transport, not memnet — and closes it with the test. The finder runs
// every 100 ms unless cfg says otherwise.
func bootTCP(t *testing.T, cfg tps.Config) *tps.Platform {
	t.Helper()
	cfg.ListenTCP = "127.0.0.1:0"
	cfg.FindTimeout = 400 * time.Millisecond
	if cfg.FindInterval == 0 {
		cfg.FindInterval = 100 * time.Millisecond
	}
	p, err := tps.NewPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// TestCloseTellsTheRendezvousOverTCP: a closing platform's last word is
// the rendezvous disconnect, queued on its TCP transport a moment before
// the transport closes. Close must let it reach the wire — otherwise the
// rendezvous keeps the lease, and keeps sending to a peer that is gone,
// until the failure detector evicts it seconds later.
func TestCloseTellsTheRendezvousOverTCP(t *testing.T) {
	rdv := bootTCP(t, tps.Config{Name: "rdv", Rendezvous: true})
	sub := bootTCP(t, tps.Config{Name: "sub", Seeds: rdv.Addresses()[:1]})
	eng, err := tps.NewEngine[SkiRental](sub)
	if err != nil {
		t.Fatal(err)
	}
	intf, _ := eng.NewInterface(nil)
	if err := intf.Subscribe(&gather[SkiRental]{}, nil); err != nil {
		t.Fatal(err)
	}
	leases := func() (n int) {
		for _, pe := range rdv.Inspect().Peers {
			if pe.Kind == obs.PeerClient && pe.ID == sub.PeerID() {
				n++
			}
		}
		return n
	}
	if !eng.AwaitReady(1, 5*time.Second) || leases() == 0 {
		t.Fatalf("subscriber never leased: %+v", rdv.Inspect().Peers)
	}

	sub.Close()
	deadline := time.Now().Add(100 * time.Millisecond)
	for leases() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("rendezvous still holds %d leases of a peer that closed 100 ms ago", leases())
		}
		time.Sleep(time.Millisecond)
	}
}
