package peergroup_test

import (
	"errors"
	"testing"
	"time"

	"github.com/tps-p2p/tps/internal/jxta/adv"
	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/peergroup"
	"github.com/tps-p2p/tps/internal/jxta/rendezvous"
	"github.com/tps-p2p/tps/internal/jxta/transport/memnet"
	"github.com/tps-p2p/tps/internal/jxta/wire"
	"github.com/tps-p2p/tps/internal/netsim"
)

func newEndpoint(t *testing.T, name string, seed uint64) *endpoint.Service {
	t.Helper()
	n := netsim.New(netsim.Config{})
	t.Cleanup(n.Close)
	node, err := n.AddNode(name)
	if err != nil {
		t.Fatal(err)
	}
	ep := endpoint.New(jid.FromSeed(jid.KindPeer, seed))
	if err := ep.AddTransport(memnet.New(node)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ep.Close() })
	return ep
}

func TestNewWiresAllServices(t *testing.T) {
	ep := newEndpoint(t, "p", 1)
	g, err := peergroup.New(ep, peergroup.Config{
		ID:   jid.FromSeed(jid.KindGroup, 9),
		Name: "test-group",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	if g.Rendezvous == nil || g.Resolver == nil || g.Discovery == nil || g.Wire == nil {
		t.Fatal("service missing from group stack")
	}
	if g.ID() != jid.FromSeed(jid.KindGroup, 9) || g.Name() != "test-group" {
		t.Fatal("identity wrong")
	}
	if g.Param() != g.ID().String() {
		t.Fatal("param must scope by group ID")
	}
	if g.PeerID() != ep.PeerID() {
		t.Fatal("peer ID mismatch")
	}
	if got := g.LocalAddresses(); len(got) != 1 {
		t.Fatalf("addresses %v", got)
	}
	// Default role is edge; no seeds means AwaitRendezvous fails fast.
	if g.AwaitRendezvous(50 * time.Millisecond) {
		t.Fatal("unseeded group claims rendezvous")
	}
}

func TestNilEndpointRejected(t *testing.T) {
	if _, err := peergroup.New(nil, peergroup.Config{}); !errors.Is(err, peergroup.ErrNilEndpoint) {
		t.Fatalf("err = %v", err)
	}
}

func TestZeroConfigDefaults(t *testing.T) {
	ep := newEndpoint(t, "p", 1)
	g, err := peergroup.New(ep, peergroup.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	if g.ID() != jid.NetGroup {
		t.Fatalf("default group = %v", g.ID())
	}
	if role := g.Rendezvous.Config().Role; role != rendezvous.RoleEdge {
		t.Fatalf("default role = %v", role)
	}
}

func TestAdvertisementEmbedsWireService(t *testing.T) {
	ep := newEndpoint(t, "p", 1)
	gid := jid.FromSeed(jid.KindGroup, 3)
	g, err := peergroup.New(ep, peergroup.Config{ID: gid, Name: "PS.SkiRental", Rendezvous: rendezvous.Config{Role: rendezvous.RoleRendezvous}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	pipeAdv := &adv.PipeAdv{PipeID: jid.NewPipeIn(gid), Type: adv.PipePropagate, Name: "PS.SkiRental"}
	pg := g.Advertisement(pipeAdv)
	if pg.GroupID != gid || pg.Name != "PS.SkiRental" || !pg.Rendezvous {
		t.Fatalf("adv %+v", pg)
	}
	svc, ok := pg.Service(wire.ServiceName)
	if !ok || svc.Pipe == nil || svc.Pipe.PipeID != pipeAdv.PipeID {
		t.Fatalf("wire service not embedded: %+v", svc)
	}
	// Without a pipe, no wire service is attached.
	bare := g.Advertisement(nil)
	if _, ok := bare.Service(wire.ServiceName); ok {
		t.Fatal("nil pipe still produced a wire service")
	}
}

func TestGroupsAreIsolatedOnOneEndpoint(t *testing.T) {
	ep := newEndpoint(t, "p", 1)
	g1, err := peergroup.New(ep, peergroup.Config{ID: jid.FromSeed(jid.KindGroup, 1), Name: "g1"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g1.Close)
	g2, err := peergroup.New(ep, peergroup.Config{ID: jid.FromSeed(jid.KindGroup, 2), Name: "g2"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g2.Close)

	// Same advertisement names in both groups' discovery caches must not
	// cross-contaminate.
	a1 := &adv.PipeAdv{PipeID: jid.FromSeed(jid.KindPipe, 1), Type: adv.PipePropagate, Name: "shared-name"}
	if err := g1.Discovery.Publish(a1, 0, 0); err != nil {
		t.Fatal(err)
	}
	if got := g2.Discovery.GetLocalAdvertisements(adv.Adv, "Name", "shared-name"); len(got) != 0 {
		t.Fatal("advertisement leaked across groups")
	}
	if got := g1.Discovery.GetLocalAdvertisements(adv.Adv, "Name", "shared-name"); len(got) != 1 {
		t.Fatal("advertisement missing from its own group")
	}
}

func TestCloseIsIdempotentAndPartialSafe(t *testing.T) {
	ep := newEndpoint(t, "p", 1)
	g, err := peergroup.New(ep, peergroup.Config{ID: jid.FromSeed(jid.KindGroup, 5)})
	if err != nil {
		t.Fatal(err)
	}
	g.Close()
	g.Close() // idempotent, all fields nil now
	// A new group with the same ID can be built after Close released the
	// endpoint handlers.
	g2, err := peergroup.New(ep, peergroup.Config{ID: jid.FromSeed(jid.KindGroup, 5)})
	if err != nil {
		t.Fatalf("rebuild after close: %v", err)
	}
	g2.Close()
}
