package srapp_test

import (
	"bytes"
	"sync"
	"testing"
	"time"

	tps "github.com/tps-p2p/tps"
	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/jxta/peer"
	"github.com/tps-p2p/tps/internal/jxta/rendezvous"
	"github.com/tps-p2p/tps/internal/jxta/transport/memnet"
	"github.com/tps-p2p/tps/internal/netsim"
	"github.com/tps-p2p/tps/internal/rig"
	"github.com/tps-p2p/tps/internal/srapp"
	"github.com/tps-p2p/tps/internal/srapp/srjxta"
	"github.com/tps-p2p/tps/internal/srapp/srtps"
)

// The two application versions must provide the same observable
// behaviour: these tests run the identical scenario through both.

func testOffer() srapp.SkiRental {
	return srapp.SkiRental{Shop: "XTremShop", Brand: "Salomon", Price: 14, NumberOfDays: 100}
}

// syncBuffer is a concurrency-safe console sink: the subscriber callback
// writes from the delivery goroutine (and a duplicate-path echo may still
// be in flight) while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Snapshot() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

func newWAN(t *testing.T) *netsim.Network {
	t.Helper()
	wan := netsim.New(netsim.Config{DefaultLink: netsim.Link{Latency: time.Millisecond}})
	t.Cleanup(wan.Close)
	return wan
}

func TestSRTPSEndToEnd(t *testing.T) {
	c := rig.New(t, rig.Netsim)
	c.Start(tps.Config{Name: "rdv", Rendezvous: true})
	shopP := c.Start(tps.Config{Name: "shop", Seeds: []string{"rdv"}}).Platform
	customerP := c.Start(tps.Config{Name: "customer", Seeds: []string{"rdv"}}).Platform

	customer, err := srtps.New(customerP)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(customer.Close)
	var console syncBuffer
	if err := customer.SubscribeConsole(&console); err != nil {
		t.Fatal(err)
	}

	shop, err := srtps.New(shopP)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(shop.Close)
	if !shop.AwaitReady(1, 10*time.Second) {
		t.Fatal("shop never ready")
	}
	if err := shop.Publish(testOffer()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(customer.Received()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("offer never arrived")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := customer.Received()[0]; got != testOffer() {
		t.Fatalf("got %+v", got)
	}
	if len(shop.Sent()) != 1 {
		t.Fatalf("Sent = %d", len(shop.Sent()))
	}
	if out := console.Snapshot(); !bytes.Contains(out, []byte("XTremShop")) {
		t.Fatalf("console output %q", out)
	}
	if len(customer.Errors()) != 0 {
		t.Fatalf("errors: %v", customer.Errors())
	}
}

func TestSRJXTAEndToEnd(t *testing.T) {
	wan := newWAN(t)
	mkPeer := func(name string, role rendezvous.Role, seeds ...endpoint.Address) *peer.Peer {
		node, err := wan.AddNode(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := peer.New(peer.Config{Name: name, Rendezvous: rendezvous.Config{Role: role, Seeds: seeds, LeaseTTL: 2 * time.Second}}, memnet.New(node))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
		return p
	}
	mkPeer("rdv", rendezvous.RoleRendezvous)
	shopPeer := mkPeer("shop", rendezvous.RoleEdge, "mem://rdv")
	customerPeer := mkPeer("customer", rendezvous.RoleEdge, "mem://rdv")

	// The shop starts first and creates the advertisement after a short
	// search.
	shop, err := srjxta.New(shopPeer, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(shop.Close)
	// The customer finds the shop's advertisement (minimisation: no
	// second advertisement is created).
	customer, err := srjxta.New(customerPeer, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(customer.Close)

	got := make(chan srapp.SkiRental, 8)
	if err := customer.Subscribe(func(r srapp.SkiRental) { got <- r }); err != nil {
		t.Fatal(err)
	}
	if !shop.AwaitReady(1, 10*time.Second) {
		t.Fatal("shop never ready")
	}
	if err := shop.Publish(testOffer()); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-got:
		if r != testOffer() {
			t.Fatalf("got %+v", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("offer never arrived")
	}
	if len(customer.Received()) == 0 || len(shop.Sent()) != 1 {
		t.Fatalf("received=%d sent=%d", len(customer.Received()), len(shop.Sent()))
	}
}

func TestSRJXTADuplicateSuppressionAcrossGroups(t *testing.T) {
	// Two shops start simultaneously with a tiny find timeout: both
	// create an advertisement, so two groups exist for the type. The
	// customer connects to both; each offer must still arrive exactly
	// once (functionality (2) and (3) of §4.4).
	wan := newWAN(t)
	mkPeer := func(name string, role rendezvous.Role, seeds ...endpoint.Address) *peer.Peer {
		node, err := wan.AddNode(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := peer.New(peer.Config{Name: name, Rendezvous: rendezvous.Config{Role: role, Seeds: seeds, LeaseTTL: 2 * time.Second}}, memnet.New(node))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
		return p
	}
	mkPeer("rdv", rendezvous.RoleRendezvous)
	shopAPeer := mkPeer("shopA", rendezvous.RoleEdge, "mem://rdv")
	shopBPeer := mkPeer("shopB", rendezvous.RoleEdge, "mem://rdv")
	customerPeer := mkPeer("customer", rendezvous.RoleEdge, "mem://rdv")

	type appResult struct {
		app *srjxta.App
		err error
	}
	results := make(chan appResult, 2)
	for _, p := range []*peer.Peer{shopAPeer, shopBPeer} {
		go func(p *peer.Peer) {
			app, err := srjxta.New(p, 50*time.Millisecond)
			results <- appResult{app, err}
		}(p)
	}
	shops := make([]*srjxta.App, 0, 2)
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		t.Cleanup(r.app.Close)
		shops = append(shops, r.app)
	}
	customer, err := srjxta.New(customerPeer, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(customer.Close)
	if err := customer.Subscribe(func(srapp.SkiRental) {}); err != nil {
		t.Fatal(err)
	}
	// Let the finders merge the advertisement sets.
	time.Sleep(time.Second)

	const perShop = 5
	for _, shop := range shops {
		if !shop.AwaitReady(1, 10*time.Second) {
			t.Fatal("shop never ready")
		}
		for i := 0; i < perShop; i++ {
			if err := shop.Publish(testOffer()); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := perShop * len(shops)
	deadline := time.Now().Add(10 * time.Second)
	for len(customer.Received()) < want {
		if time.Now().After(deadline) {
			t.Fatalf("received %d of %d", len(customer.Received()), want)
		}
		time.Sleep(10 * time.Millisecond)
	}
	wan.WaitQuiesce(5 * time.Second)
	if got := len(customer.Received()); got != want {
		t.Fatalf("received %d, want exactly %d (duplicates leaked)", got, want)
	}
}
