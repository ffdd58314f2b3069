package peer_test

import (
	"errors"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tps-p2p/tps/internal/jxta/adv"
	"github.com/tps-p2p/tps/internal/jxta/discovery"
	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/message"
	"github.com/tps-p2p/tps/internal/jxta/peer"
	"github.com/tps-p2p/tps/internal/jxta/rendezvous"
	"github.com/tps-p2p/tps/internal/jxta/transport/memnet"
	"github.com/tps-p2p/tps/internal/jxta/wire"
	"github.com/tps-p2p/tps/internal/netsim"
)

type cluster struct {
	t   *testing.T
	net *netsim.Network
}

func newCluster(t *testing.T) *cluster {
	t.Helper()
	n := netsim.New(netsim.Config{DefaultLink: netsim.Link{Latency: time.Millisecond}})
	t.Cleanup(n.Close)
	return &cluster{t: t, net: n}
}

// addRendezvous starts a rendezvous peer: its role alone makes its
// rendezvous service serve every group.
func (c *cluster) addRendezvous(name string) *peer.Peer {
	c.t.Helper()
	node, err := c.net.AddNode(name)
	if err != nil {
		c.t.Fatal(err)
	}
	p, err := peer.New(peer.Config{
		Name:       name,
		Rendezvous: rendezvous.Config{Role: rendezvous.RoleRendezvous, LeaseTTL: 2 * time.Second},
	}, memnet.New(node))
	if err != nil {
		c.t.Fatal(err)
	}
	c.t.Cleanup(p.Close)
	return p
}

// addEdge starts an ordinary edge peer seeded with the given rendezvous.
func (c *cluster) addEdge(name string, seeds ...endpoint.Address) *peer.Peer {
	c.t.Helper()
	node, err := c.net.AddNode(name)
	if err != nil {
		c.t.Fatal(err)
	}
	p, err := peer.New(peer.Config{
		Name:       name,
		Rendezvous: rendezvous.Config{Seeds: seeds, LeaseTTL: 2 * time.Second},
	}, memnet.New(node))
	if err != nil {
		c.t.Fatal(err)
	}
	c.t.Cleanup(p.Close)
	return p
}

func TestPeerBootJoinsNetGroup(t *testing.T) {
	c := newCluster(t)
	p := c.addEdge("solo")
	if p.Discovery() == nil {
		t.Fatal("no net group after boot")
	}
	// Zero role means edge; no seeds means no lease, at once.
	rdv := p.Rendezvous()
	if role := rdv.Config().Role; role != rendezvous.RoleEdge {
		t.Fatalf("default role = %v", role)
	}
	if rdv.AwaitConnected(jid.NetGroup.String(), 50*time.Millisecond) {
		t.Fatal("unseeded peer claims a rendezvous")
	}
	// The net group is the control plane, not a joined event group.
	if len(p.Groups()) != 0 {
		t.Fatalf("groups = %d", len(p.Groups()))
	}
	if got := p.Addresses(); len(got) != 1 || got[0] != "mem://solo" {
		t.Fatalf("addresses %v", got)
	}
}

func TestPeerRequiresTransport(t *testing.T) {
	if _, err := peer.New(peer.Config{Name: "none"}); !errors.Is(err, peer.ErrNoTransports) {
		t.Fatalf("err = %v", err)
	}
}

func TestJoinLeaveCustomGroup(t *testing.T) {
	c := newCluster(t)
	p := c.addEdge("p")
	gid := jid.FromSeed(jid.KindGroup, 100)
	g, err := p.JoinGroup(gid, "custom")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.JoinGroup(gid, "custom"); !errors.Is(err, peer.ErrAlreadyIn) {
		t.Fatalf("double join: %v", err)
	}
	got, ok := p.Group(gid)
	if !ok || got != g {
		t.Fatal("group lookup failed")
	}
	p.LeaveGroup(gid)
	if _, ok := p.Group(gid); ok {
		t.Fatal("group still present after leave")
	}
	// Can re-join after leaving.
	if _, err := p.JoinGroup(gid, "custom"); err != nil {
		t.Fatalf("re-join: %v", err)
	}
}

func TestWirePubSubThroughDaemonInTypeGroup(t *testing.T) {
	// The paper's core substrate flow: per-type peer groups bridged by a
	// rendezvous that joined none of them.
	c := newCluster(t)
	c.addRendezvous("rdv")
	pub := c.addEdge("pub", "mem://rdv")
	sub := c.addEdge("sub", "mem://rdv")

	gid := jid.FromSeed(jid.KindGroup, 7)
	gPub, err := pub.JoinGroup(gid, "PS.SkiRental")
	if err != nil {
		t.Fatal(err)
	}
	gSub, err := sub.JoinGroup(gid, "PS.SkiRental")
	if err != nil {
		t.Fatal(err)
	}
	if !pub.Rendezvous().AwaitConnected(gid.String(), 5*time.Second) || !sub.Rendezvous().AwaitConnected(gid.String(), 5*time.Second) {
		t.Fatal("type group never connected to the rendezvous")
	}

	pipeAdv := &adv.PipeAdv{PipeID: jid.NewPipeIn(gid), Type: adv.PipePropagate, Name: "PS.SkiRental"}
	in, err := gSub.Wire.CreateInputPipe(pipeAdv)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan string, 16)
	in.SetListener(func(m *message.Message) { got <- m.Text("app", "body") })

	out, err := gPub.Wire.CreateOutputPipe(pipeAdv)
	if err != nil {
		t.Fatal(err)
	}
	m := message.New(pub.ID())
	m.AddString("app", "body", "offer-1")
	if err := out.Send(m); err != nil {
		t.Fatal(err)
	}
	select {
	case s := <-got:
		if s != "offer-1" {
			t.Fatalf("got %q", s)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("event never crossed the rendezvous")
	}
}

// TestGroupIsolationAcrossTypes sends on one group's wire with the same
// pipe ID open in another group: nothing may cross. One rendezvous
// service per peer carries both groups, and the group each message names
// is all that keeps them apart — between two edges, and when the
// rendezvous has joined both groups itself, while the group's own
// subscribers still get what is sent in it.
func TestGroupIsolationAcrossTypes(t *testing.T) {
	ski := jid.FromSeed(jid.KindGroup, 1)
	chat := jid.FromSeed(jid.KindGroup, 2)
	pid := jid.FromSeed(jid.KindPipe, 9)
	pipe := &adv.PipeAdv{PipeID: pid, Type: adv.PipePropagate, Name: "x"}
	// join joins p to a group and waits for its lease.
	join := func(t *testing.T, p *peer.Peer, id jid.ID, name string) *peer.Group {
		t.Helper()
		g, err := p.JoinGroup(id, name)
		if err != nil {
			t.Fatal(err)
		}
		if rdv := p.Rendezvous(); len(rdv.Config().Seeds) > 0 && !rdv.AwaitConnected(g.Param(), 5*time.Second) {
			t.Fatalf("%s never connected", name)
		}
		return g
	}
	// listen counts what reaches the group's end of the pipe.
	listen := func(t *testing.T, g *peer.Group) *atomic.Int64 {
		t.Helper()
		in, err := g.Wire.CreateInputPipe(pipe)
		if err != nil {
			t.Fatal(err)
		}
		var n atomic.Int64
		in.SetListener(func(*message.Message) { n.Add(1) })
		return &n
	}
	send := func(t *testing.T, p *peer.Peer, g *peer.Group) {
		t.Helper()
		out, err := g.Wire.CreateOutputPipe(pipe)
		if err != nil {
			t.Fatal(err)
		}
		if err := out.Send(message.New(p.ID())); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("edges", func(t *testing.T) {
		c := newCluster(t)
		c.addRendezvous("rdv")
		pub := c.addEdge("pub", "mem://rdv")
		sub := c.addEdge("sub", "mem://rdv")
		gPubSki := join(t, pub, ski, "PS.Ski")
		leaked := listen(t, join(t, sub, chat, "PS.Chat"))
		send(t, pub, gPubSki)
		c.net.WaitQuiesce(5 * time.Second)
		if n := leaked.Load(); n != 0 {
			t.Fatalf("cross-group leak: %d messages", n)
		}
	})

	t.Run("rendezvous in both", func(t *testing.T) {
		c := newCluster(t)
		rdv := c.addRendezvous("rdv")
		skiSub := c.addEdge("ski-sub", "mem://rdv")
		chatSub := c.addEdge("chat-sub", "mem://rdv")
		got := listen(t, join(t, skiSub, ski, "PS.Ski"))
		leaked := listen(t, join(t, chatSub, chat, "PS.Chat"))
		gSki := join(t, rdv, ski, "PS.Ski")
		gChat := join(t, rdv, chat, "PS.Chat")
		leakedHere := listen(t, gChat)
		send(t, rdv, gSki)
		c.net.WaitQuiesce(5 * time.Second)
		if n := got.Load(); n != 1 {
			t.Fatalf("the group's own subscriber got %d messages, want 1", n)
		}
		if n, here := leaked.Load(), leakedHere.Load(); n != 0 || here != 0 {
			t.Fatalf("cross-group leak through the shared service: %d to the other group's subscriber, %d to the rendezvous' own", n, here)
		}
	})
}

func TestDiscoveryAcrossDaemonAndJoinFromAdv(t *testing.T) {
	// Full paper flow: publisher creates a type group + wire pipe +
	// advertisement; subscriber discovers the advertisement remotely,
	// joins the group from it and receives events.
	c := newCluster(t)
	c.addRendezvous("rdv")
	pub := c.addEdge("pub", "mem://rdv")
	sub := c.addEdge("sub", "mem://rdv")
	net := jid.NetGroup.String()
	if !pub.Rendezvous().AwaitConnected(net, 5*time.Second) || !sub.Rendezvous().AwaitConnected(net, 5*time.Second) {
		t.Fatal("net groups never connected")
	}

	// Publisher side (the paper's AdvertisementsCreator).
	gid := jid.FromSeed(jid.KindGroup, 77)
	gPub, err := pub.JoinGroup(gid, "PS.SkiRental")
	if err != nil {
		t.Fatal(err)
	}
	if !pub.Rendezvous().AwaitConnected(gPub.Param(), 5*time.Second) {
		t.Fatal("pub type group not connected")
	}
	pipeAdv := &adv.PipeAdv{PipeID: jid.NewPipeIn(gid), Type: adv.PipePropagate, Name: "PS.SkiRental"}
	groupAdv := &adv.PeerGroupAdv{GroupID: gid, PeerID: pub.ID(), Name: "PS.SkiRental"}
	groupAdv.SetService(adv.ServiceAdv{Name: wire.ServiceName, Pipe: pipeAdv})
	if err := pub.Discovery().RemotePublish(groupAdv, 0); err != nil {
		t.Fatal(err)
	}

	// Subscriber side (the paper's AdvertisementsFinder).
	found := make(chan *adv.PeerGroupAdv, 1)
	sub.Discovery().AddListener(func(pg *adv.PeerGroupAdv, _ jid.ID) {
		select {
		case found <- pg:
		default:
		}
	})
	if err := sub.Discovery().GetRemoteAdvertisements("PS.*", 10); err != nil {
		t.Fatal(err)
	}
	var pg *adv.PeerGroupAdv
	select {
	case pg = <-found:
	case <-time.After(5 * time.Second):
		t.Fatal("group advertisement never discovered")
	}

	// Join from the advertisement (the paper's WireServiceFinder).
	gSub, wirePipe, err := sub.JoinGroupFromAdv(pg)
	if err != nil {
		t.Fatal(err)
	}
	if wirePipe.PipeID != pipeAdv.PipeID {
		t.Fatalf("wire pipe %v, want %v", wirePipe.PipeID, pipeAdv.PipeID)
	}
	if !sub.Rendezvous().AwaitConnected(gSub.Param(), 5*time.Second) {
		t.Fatal("sub type group not connected")
	}
	in, err := gSub.Wire.CreateInputPipe(wirePipe)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan string, 1)
	in.SetListener(func(m *message.Message) { got <- m.Text("app", "body") })

	out, err := gPub.Wire.CreateOutputPipe(pipeAdv)
	if err != nil {
		t.Fatal(err)
	}
	m := message.New(pub.ID())
	m.AddString("app", "body", "discovered-and-delivered")
	if err := out.Send(m); err != nil {
		t.Fatal(err)
	}
	select {
	case s := <-got:
		if s != "discovered-and-delivered" {
			t.Fatalf("got %q", s)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("event never arrived after join-from-adv")
	}
}

func TestJoinGroupFromAdvWithoutWire(t *testing.T) {
	c := newCluster(t)
	p := c.addEdge("p")
	bare := &adv.PeerGroupAdv{GroupID: jid.FromSeed(jid.KindGroup, 5), Name: "no-wire"}
	if _, _, err := p.JoinGroupFromAdv(bare); !errors.Is(err, peer.ErrNoWireInAdv) {
		t.Fatalf("err = %v", err)
	}
}

// TestEdgeGroupBuildsNoDiscovery: nothing queries inside an event group,
// so joining one builds no discovery: the discovery endpoint handler for
// the group's parameter is free, and the net group's is taken.
func TestEdgeGroupBuildsNoDiscovery(t *testing.T) {
	c := newCluster(t)
	p := c.addEdge("p")
	g, err := p.JoinGroup(jid.FromSeed(jid.KindGroup, 7), "typed")
	if err != nil {
		t.Fatal(err)
	}
	noop := func(*message.Message, endpoint.Address) {}
	if err := p.Endpoint().RegisterHandler(discovery.ServiceName, g.Param(), noop); err != nil {
		t.Fatalf("a joined group registered a discovery: %v", err)
	}
	if err := p.Endpoint().RegisterHandler(discovery.ServiceName, jid.NetGroup.String(), noop); !errors.Is(err, endpoint.ErrDupHandler) {
		t.Fatalf("the net group's discovery handler: %v, want ErrDupHandler", err)
	}
}

// TestRendezvousGroupsShareTheWildcardService: a rendezvous peer's event
// groups are wires on its one rendezvous service, the one that serves
// its clients' groups too. Leaving a group leaves that service running.
func TestRendezvousGroupsShareTheWildcardService(t *testing.T) {
	c := newCluster(t)
	rdv := c.addRendezvous("rdv")
	svc := rdv.Rendezvous()
	ski, chat := jid.FromSeed(jid.KindGroup, 1), jid.FromSeed(jid.KindGroup, 2)
	for _, id := range []jid.ID{ski, chat} {
		if _, err := rdv.JoinGroup(id, "PS.Any"); err != nil {
			t.Fatal(err)
		}
	}
	rdv.LeaveGroup(ski)
	rdv.LeaveGroup(chat)
	if rdv.Rendezvous() != svc {
		t.Fatal("the rendezvous service changed with the groups it served")
	}
	// Still running: it grants a new client a lease for a group it left.
	edge := c.addEdge("edge", "mem://rdv")
	g, err := edge.JoinGroup(ski, "PS.Ski")
	if err != nil {
		t.Fatal(err)
	}
	if !edge.Rendezvous().AwaitConnected(g.Param(), 5*time.Second) {
		t.Fatal("the rendezvous service stopped with the groups it served")
	}
}

// TestJoinGroupStartsNoGoroutine: a group is a lease on the peer's one
// rendezvous service, not a service of its own, so joining one starts
// no goroutine. It logs what a join costs on a seeded edge: heap objects,
// bytes and goroutines per JoinGroup, over 100 joins, the lease grants
// they bring back included.
func TestJoinGroupStartsNoGoroutine(t *testing.T) {
	c := newCluster(t)
	c.addRendezvous("rdv")
	p := c.addEdge("edge", "mem://rdv")
	join := func(from, n int) {
		t.Helper()
		for i := from; i < from+n; i++ {
			if _, err := p.JoinGroup(jid.FromSeed(jid.KindGroup, uint64(1000+i)), "g"); err != nil {
				t.Fatal(err)
			}
		}
		c.net.WaitQuiesce(5 * time.Second)
	}

	before := runtime.NumGoroutine()
	join(0, 20)
	if grew := runtime.NumGoroutine() - before; grew > 2 {
		t.Fatalf("20 joins started %d goroutines", grew)
	}

	const joins = 100
	samples := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}, {Name: "/sched/goroutines:goroutines"}}
	read := func() (objects, bytes, goroutines float64) {
		runtime.GC()
		runtime.GC()
		metrics.Read(samples)
		return float64(samples[0].Value.Uint64()), float64(samples[1].Value.Uint64()), float64(samples[2].Value.Uint64())
	}
	o0, b0, g0 := read()
	join(20, joins)
	o1, b1, g1 := read()
	t.Logf("per JoinGroup on a seeded edge: %.1f heap objects, %.0f B, %.2f goroutines",
		(o1-o0)/joins, (b1-b0)/joins, (g1-g0)/joins)
}

func TestPeerRestartKeepsIdentity(t *testing.T) {
	c := newCluster(t)
	node, err := c.net.AddNode("p1")
	if err != nil {
		t.Fatal(err)
	}
	id := jid.FromSeed(jid.KindPeer, 42)
	p1, err := peer.New(peer.Config{Name: "p", ID: id}, memnet.New(node))
	if err != nil {
		t.Fatal(err)
	}
	if p1.ID() != id {
		t.Fatalf("ID = %v", p1.ID())
	}
	p1.Close()

	node2, err := c.net.AddNode("p2")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := peer.New(peer.Config{Name: "p", ID: id}, memnet.New(node2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p2.Close)
	if p2.ID() != id {
		t.Fatal("identity lost across restart")
	}
	if got := p2.Addresses(); got[0] != "mem://p2" {
		t.Fatalf("new address %v", got)
	}
}

func TestCloseIsIdempotentAndTerminal(t *testing.T) {
	c := newCluster(t)
	p := c.addEdge("p")
	p.Close()
	p.Close()
	if _, err := p.JoinGroup(jid.FromSeed(jid.KindGroup, 1), ""); !errors.Is(err, peer.ErrClosed) {
		t.Fatalf("join after close: %v", err)
	}
}
