package tps_test

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	tps "github.com/tps-p2p/tps"
	"github.com/tps-p2p/tps/internal/obs"
	"github.com/tps-p2p/tps/internal/rig"
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

// fleet is a simulated-WAN cluster around one rendezvous, "rdv".
type fleet struct {
	*rig.Cluster
	unnamed int
}

func newFleet(t *testing.T) *fleet {
	t.Helper()
	f := &fleet{Cluster: rig.New(t, rig.Netsim)}
	f.Start(tps.Config{Name: "rdv", Rendezvous: true})
	return f
}

// platform starts one platform of the fleet, naming it if cfg does not.
func (f *fleet) platform(cfg tps.Config) *tps.Platform {
	if cfg.Name == "" {
		f.unnamed++
		cfg.Name = fmt.Sprintf("peer%d", f.unnamed)
	}
	return f.Start(cfg).Platform
}

// edge starts an ordinary platform seeded with the fleet's rendezvous.
func (f *fleet) edge() *tps.Platform { return f.platform(tps.Config{Seeds: []string{"rdv"}}) }

func TestSkiRentalEndToEnd(t *testing.T) {
	r := newFleet(t)
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
	var g rig.Probe[SkiRental]
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
	g.Await(t, 1)
	got := g.Events()[0]
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
	r := newFleet(t)
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
	var console, gui rig.Probe[SkiRental]
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
	console.Await(t, 1)
	gui.Await(t, 1)

	// Mismatched arrays are rejected.
	if err := subInt.SubscribeMany([]tps.CallBack[SkiRental]{&console}, nil); !errors.Is(err, tps.ErrMismatchedArrays) {
		t.Fatalf("err = %v", err)
	}
}

func TestUnsubscribeSpecificCallback(t *testing.T) {
	r := newFleet(t)
	pubP, subP := r.edge(), r.edge()
	for _, p := range []*tps.Platform{pubP, subP} {
		if err := tps.Register[SkiRental](p); err != nil {
			t.Fatal(err)
		}
	}
	subEng, _ := tps.NewEngine[SkiRental](subP)
	defer subEng.Close()
	subInt, _ := subEng.NewInterface(nil)
	var keep, drop rig.Probe[SkiRental]
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
	keep.Await(t, 1)
	drop.Await(t, 1)

	if err := subInt.Unsubscribe(&drop, nil); err != nil {
		t.Fatal(err)
	}
	if err := subInt.Unsubscribe(&drop, nil); !errors.Is(err, tps.ErrNotSubscribed) {
		t.Fatalf("double unsubscribe: %v", err)
	}
	if err := pubInt.Publish(SkiRental{Shop: "two"}); err != nil {
		t.Fatal(err)
	}
	keep.Await(t, 2)
	time.Sleep(100 * time.Millisecond)
	if drop.Count() != 1 {
		t.Fatalf("dropped callback still received: %d", drop.Count())
	}

	if err := subInt.UnsubscribeAll(); err != nil {
		t.Fatal(err)
	}
	if err := pubInt.Publish(SkiRental{Shop: "three"}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	if keep.Count() != 2 {
		t.Fatalf("callback received after UnsubscribeAll: %d", keep.Count())
	}
}

// TestUnsubscribeLastTearsDownCore asserts that removing the final
// (callback, handler) pair via Unsubscribe stops deliveries entirely —
// ObjectsReceived must not keep growing on an interface nobody listens
// on — and that a later Subscribe revives the flow.
func TestUnsubscribeLastTearsDownCore(t *testing.T) {
	r := newFleet(t)
	pubP, subP := r.edge(), r.edge()
	for _, p := range []*tps.Platform{pubP, subP} {
		if err := tps.Register[SkiRental](p); err != nil {
			t.Fatal(err)
		}
	}
	subEng, _ := tps.NewEngine[SkiRental](subP)
	defer subEng.Close()
	subInt, _ := subEng.NewInterface(nil)
	var g rig.Probe[SkiRental]
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
	g.Await(t, 1)

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
	g.Await(t, 2)
}

func TestCriteriaContentFilter(t *testing.T) {
	r := newFleet(t)
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
	var g rig.Probe[SkiRental]
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
	g.Await(t, 2)
	time.Sleep(200 * time.Millisecond)
	if g.Count() != 2 {
		t.Fatalf("criteria leaked: %d events", g.Count())
	}
	for _, ev := range g.Events() {
		if ev.Price >= 20 {
			t.Fatalf("expensive offer leaked: %+v", ev)
		}
	}
}

func TestExceptionHandlerReceivesErrors(t *testing.T) {
	r := newFleet(t)
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
	r := newFleet(t)
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
	var g rig.Probe[Offer]
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

	// Join the concrete types' groups before the one-shot publishes.
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
	g.Await(t, 2)
	sellers := map[string]bool{}
	for _, ev := range g.Events() {
		sellers[ev.Seller()] = true
	}
	if !sellers["ski-shop"] || !sellers["bike-shop"] {
		t.Fatalf("sellers = %v", sellers)
	}
}

// TestOverlappingEnginesShareOneAttachment: an engine is a view of its
// platform's one runtime, so an Engine[Offer] and an Engine[SkiRental]
// on one platform share SkiRental's group and its one attachment. Each
// gets a SkiRental published by another peer, and one published through
// the second engine, exactly once.
func TestOverlappingEnginesShareOneAttachment(t *testing.T) {
	rig.Each(t, func(t *testing.T, c *rig.Cluster) {
		c.Start(tps.Config{Name: "rdv", Rendezvous: true})
		pub := c.Start(tps.Config{Name: "pub", Seeds: []string{"rdv"}})
		sub := c.Start(tps.Config{Name: "sub", Seeds: []string{"rdv"}})
		for _, n := range []*rig.Node{pub, sub} {
			if err := tps.Register[Offer](n.Platform); err != nil {
				t.Fatal(err)
			}
			if err := tps.RegisterSub[SkiRental, Offer](n.Platform); err != nil {
				t.Fatal(err)
			}
		}
		offerEng, offerInt := rig.Engine[Offer](t, sub)
		skiEng, skiInt := rig.Engine[SkiRental](t, sub)
		var offers rig.Probe[Offer]
		var skis rig.Probe[SkiRental]
		if err := offerInt.Subscribe(&offers, &offers); err != nil {
			t.Fatal(err)
		}
		if err := skiInt.Subscribe(&skis, &skis); err != nil {
			t.Fatal(err)
		}
		// The Offer engine attached the root's group and SkiRental's; the
		// SkiRental engine attached nothing more.
		if !offerEng.AwaitReady(2, 5*time.Second) || !skiEng.AwaitReady(1, 5*time.Second) {
			t.Fatal("the subscriber's groups never became ready")
		}
		if engine, _ := sub.Stats().Subsystem("engine"); engine.Gauges["attachments"] != 2 {
			t.Fatalf("%v attachments on the subscriber, want 2", engine.Gauges["attachments"])
		}

		pubEng, pubInt := rig.Engine[SkiRental](t, pub)
		if !pubEng.AwaitReady(1, 5*time.Second) {
			t.Fatal("publisher never ready")
		}
		if err := pubInt.Publish(SkiRental{Shop: "remote", Price: 10}); err != nil {
			t.Fatal(err)
		}
		if err := skiInt.Publish(SkiRental{Shop: "local", Price: 12}); err != nil {
			t.Fatal(err)
		}
		offers.Await(t, 2)
		skis.Await(t, 2)
		time.Sleep(100 * time.Millisecond) // let a duplicate surface
		offers.ExactlyOnce(t, 2)
		skis.ExactlyOnce(t, 2)
		if errs := append(offers.Errors(), skis.Errors()...); len(errs) != 0 {
			t.Fatalf("exceptions: %v", errs)
		}
	})
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
	// Events are gob on every peer; a platform configured otherwise does
	// not start.
	if _, err := tps.NewPlatform(tps.Config{Name: "json", Codec: "json"}); err == nil || !strings.Contains(err.Error(), `codec "json"`) {
		t.Fatalf("a json platform: %v", err)
	}
	r := newFleet(t)
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
	r := newFleet(t)
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
// interface refuses to publish and its replay loop is gone,
// not left ticking against a closed peer.
func TestPlatformCloseStopsEngines(t *testing.T) {
	c := rig.New(t, rig.Netsim)
	base := runtime.NumGoroutine()
	p := c.Start(tps.Config{Name: "solo", FindInterval: 20 * time.Millisecond}).Platform
	eng, err := tps.NewEngine[SkiRental](p)
	if err != nil {
		t.Fatal(err)
	}
	intf, _ := eng.NewInterface(nil)
	var g rig.Probe[SkiRental]
	if err := intf.Subscribe(&g, nil); err != nil {
		t.Fatal(err)
	}
	if err := intf.Publish(SkiRental{Shop: "open"}); err != nil {
		t.Fatal(err)
	}
	g.Await(t, 1)

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

// slot is a family of distinct event types: slot[[0]int] … slot[[9]int].
type slot[N any] struct{ K int }

// subscribeSlot opens an engine for slot[N] on p and subscribes to it.
func subscribeSlot[N any](t *testing.T, p *tps.Platform) *tps.Engine[slot[N]] {
	t.Helper()
	eng, err := tps.NewEngine[slot[N]](p)
	if err != nil {
		t.Fatal(err)
	}
	intf, _ := eng.NewInterface(nil)
	if err := intf.Subscribe(&rig.Probe[slot[N]]{}, nil); err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestTenEnginesRunAsManyGoroutinesAsOne: an engine is a view of the
// platform's one runtime, so nine more engines over nine more types,
// each subscribed, start no goroutine; and none outlives Platform.Close.
func TestTenEnginesRunAsManyGoroutinesAsOne(t *testing.T) {
	c := rig.New(t, rig.Netsim)
	base := runtime.NumGoroutine()
	p := c.Start(tps.Config{Name: "solo", FindInterval: 20 * time.Millisecond}).Platform
	closers := []func(){subscribeSlot[[0]int](t, p).Close}
	// awaitAtMost waits for the goroutines to settle at or below n.
	awaitAtMost := func(n int, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > n {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("%d goroutines %s, want at most %d:\n%s",
					runtime.NumGoroutine(), what, n, buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	time.Sleep(50 * time.Millisecond)
	one := runtime.NumGoroutine()
	closers = append(closers,
		subscribeSlot[[1]int](t, p).Close, subscribeSlot[[2]int](t, p).Close,
		subscribeSlot[[3]int](t, p).Close, subscribeSlot[[4]int](t, p).Close,
		subscribeSlot[[5]int](t, p).Close, subscribeSlot[[6]int](t, p).Close,
		subscribeSlot[[7]int](t, p).Close, subscribeSlot[[8]int](t, p).Close,
		subscribeSlot[[9]int](t, p).Close)
	if got := len(p.Inspect().Subscriptions); got != 10 {
		t.Fatalf("%d subscribed types, want 10", got)
	}
	awaitAtMost(one, "with ten engines")
	for _, closeEngine := range closers {
		closeEngine()
	}
	p.Close()
	awaitAtMost(base, "outlive Platform.Close")
}

// TestCloseTellsTheRendezvousOverTCP: a closing platform's last word is
// the rendezvous disconnect, queued on its TCP transport a moment before
// the transport closes. Close must let it reach the wire — otherwise the
// rendezvous keeps the lease, and keeps sending to a peer that is gone,
// until the failure detector evicts it seconds later.
func TestCloseTellsTheRendezvousOverTCP(t *testing.T) {
	c := rig.New(t, rig.TCP)
	rdv := c.Start(tps.Config{Name: "rdv", Rendezvous: true})
	sub := c.Start(tps.Config{Name: "sub", Seeds: []string{"rdv"}})
	eng, err := tps.NewEngine[SkiRental](sub.Platform)
	if err != nil {
		t.Fatal(err)
	}
	intf, _ := eng.NewInterface(nil)
	if err := intf.Subscribe(&rig.Probe[SkiRental]{}, nil); err != nil {
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
