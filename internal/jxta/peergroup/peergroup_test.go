package peergroup_test

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"github.com/tps-p2p/tps/internal/eventlog"
	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/peergroup"
	"github.com/tps-p2p/tps/internal/jxta/rendezvous"
	"github.com/tps-p2p/tps/internal/jxta/transport/memnet"
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
	gid := jid.FromSeed(jid.KindGroup, 9)
	g, err := peergroup.New(ep, peergroup.Config{ID: gid, Name: "test-group"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	if g.Rendezvous == nil || g.Wire == nil {
		t.Fatal("service missing from group stack")
	}
	if g.Param() != gid.String() || g.Rendezvous.Config().GroupParam != g.Param() {
		t.Fatal("param must scope by group ID")
	}
	// Default role is edge; no seeds means no lease, at once.
	if g.Rendezvous.AwaitConnected(50 * time.Millisecond) {
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
	g, err := peergroup.New(ep, peergroup.Config{ID: jid.FromSeed(jid.KindGroup, 2)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	if role := g.Rendezvous.Config().Role; role != rendezvous.RoleEdge {
		t.Fatalf("default role = %v", role)
	}
}

// TestCoreIsTheNetGroupsControlPlane: the net group is a rendezvous and
// the discovery on it. It carries queries and advertisements, never
// events, so its rendezvous logs and replicates nothing whatever the
// template it is built from says.
func TestCoreIsTheNetGroupsControlPlane(t *testing.T) {
	ep := newEndpoint(t, "p", 1)
	log, err := eventlog.Open(eventlog.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = log.Close() })
	c, err := peergroup.NewCore(ep, rendezvous.Config{
		Role:         rendezvous.RoleRendezvous,
		Log:          log,
		ReplicaSeeds: []endpoint.Address{"mem://replica"},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if c.Rendezvous == nil || c.Discovery == nil {
		t.Fatal("service missing from the control plane")
	}
	// Exactly these two: discovery speaks straight over the rendezvous.
	core := reflect.TypeOf(*c)
	if core.NumField() != 2 || core.Field(0).Name != "Rendezvous" || core.Field(1).Name != "Discovery" {
		t.Fatalf("Core has %d fields, want {Rendezvous, Discovery}", core.NumField())
	}
	got := c.Rendezvous.Config()
	if got.GroupParam != jid.NetGroup.String() || got.Role != rendezvous.RoleRendezvous {
		t.Fatalf("scoped to %q as %v, want the net group as a rendezvous", got.GroupParam, got.Role)
	}
	if got.Log != nil || got.ReplicaSeeds != nil {
		t.Fatalf("the net group's rendezvous logs to %v and replicates against %v", got.Log, got.ReplicaSeeds)
	}
}

func TestCloseIsIdempotentAndPartialSafe(t *testing.T) {
	ep := newEndpoint(t, "p", 1)
	g, err := peergroup.New(ep, peergroup.Config{ID: jid.FromSeed(jid.KindGroup, 5)})
	if err != nil {
		t.Fatal(err)
	}
	g.Close()
	g.Close() // idempotent
	// A new group with the same ID can be built after Close released the
	// endpoint handlers.
	g2, err := peergroup.New(ep, peergroup.Config{ID: jid.FromSeed(jid.KindGroup, 5)})
	if err != nil {
		t.Fatalf("rebuild after close: %v", err)
	}
	g2.Close()
}
