package peer_test

import (
	"errors"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"testing"
	"time"

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

// joinWire joins p to the group as a reader of the group joins it: a
// wire service on the peer's endpoint and its one rendezvous service,
// and a lease for the group. The wire closes with the test.
func joinWire(t *testing.T, p *peer.Peer, id jid.ID) *wire.Service {
	t.Helper()
	w, err := wire.New(p.Rendezvous(), wire.Config{Group: id.String()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	p.Rendezvous().Join(id.String())
	return w
}

func TestPeerBootJoinsNetGroup(t *testing.T) {
	c := newCluster(t)
	p := c.addEdge("solo")
	if p.Closed() {
		t.Fatal("closed after boot")
	}
	// Zero role means edge; no seeds means no lease, at once.
	rdv := p.Rendezvous()
	if role := rdv.Config().Role; role != rendezvous.RoleEdge {
		t.Fatalf("default role = %v", role)
	}
	if rdv.AwaitConnected(jid.NetGroup.String(), 50*time.Millisecond) {
		t.Fatal("unseeded peer claims a rendezvous")
	}
	// The net group is the control plane, not an event group: nothing
	// reads events in it.
	noop := rendezvous.DeliverFunc(func(*message.Message, endpoint.Address) {})
	if err := rdv.Read(jid.NetGroup.String(), noop); err != nil {
		t.Fatalf("the peer reads events in the net group: %v", err)
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

// TestJoinLeaveCustomGroup: the peer keeps no table of its groups; the
// rendezvous' readers and leases are the record. A second reader of a
// joined group is refused by the rendezvous, a left group holds no
// lease, and a left group can be joined again.
func TestJoinLeaveCustomGroup(t *testing.T) {
	c := newCluster(t)
	c.addRendezvous("rdv")
	p := c.addEdge("p", "mem://rdv")
	gid := jid.FromSeed(jid.KindGroup, 100)
	rdv := p.Rendezvous()
	w := joinWire(t, p, gid)
	if !rdv.AwaitConnected(gid.String(), 5*time.Second) {
		t.Fatal("the joined group never held a lease")
	}
	if _, err := wire.New(rdv, wire.Config{Group: gid.String()}); !errors.Is(err, rendezvous.ErrDupReader) {
		t.Fatalf("double join: %v", err)
	}
	w.Close()
	rdv.Leave(gid.String())
	if got := rdv.ConnectedRendezvous(gid.String()); len(got) != 0 {
		t.Fatalf("a left group still holds leases with %v", got)
	}
	// Can re-join after leaving.
	joinWire(t, p, gid)
	if !rdv.AwaitConnected(gid.String(), 5*time.Second) {
		t.Fatal("the re-joined group never held a lease")
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
	wPub := joinWire(t, pub, gid)
	wSub := joinWire(t, sub, gid)
	if !pub.Rendezvous().AwaitConnected(gid.String(), 5*time.Second) || !sub.Rendezvous().AwaitConnected(gid.String(), 5*time.Second) {
		t.Fatal("type group never connected to the rendezvous")
	}

	pipe := jid.NewPipeIn(gid)
	in, err := wSub.CreateInputPipe(pipe)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan string, 16)
	in.SetListener(func(m *message.Message) { got <- m.Text("app", "body") })

	out, err := wPub.CreateOutputPipe(pipe)
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
	pipe := jid.FromSeed(jid.KindPipe, 9)
	// join joins p to a group and waits for its lease.
	join := func(t *testing.T, p *peer.Peer, id jid.ID, name string) *wire.Service {
		t.Helper()
		w := joinWire(t, p, id)
		if rdv := p.Rendezvous(); len(rdv.Config().Seeds) > 0 && !rdv.AwaitConnected(id.String(), 5*time.Second) {
			t.Fatalf("%s never connected", name)
		}
		return w
	}
	// listen counts what reaches the group's end of the pipe.
	listen := func(t *testing.T, w *wire.Service) *atomic.Int64 {
		t.Helper()
		in, err := w.CreateInputPipe(pipe)
		if err != nil {
			t.Fatal(err)
		}
		var n atomic.Int64
		in.SetListener(func(*message.Message) { n.Add(1) })
		return &n
	}
	send := func(t *testing.T, p *peer.Peer, w *wire.Service) {
		t.Helper()
		out, err := w.CreateOutputPipe(pipe)
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

// TestEdgeGroupBuildsNoDiscovery: a peer finds no group by
// advertisement, so neither booting nor joining a group builds a
// discovery: the discovery endpoint handlers for the group's parameter
// and for the net group are both free, and so is the net group's
// reader, for an application to take.
func TestEdgeGroupBuildsNoDiscovery(t *testing.T) {
	c := newCluster(t)
	p := c.addEdge("p")
	gid := jid.FromSeed(jid.KindGroup, 7)
	joinWire(t, p, gid)
	noop := func(*message.Message, endpoint.Address) {}
	for _, param := range []string{gid.String(), jid.NetGroup.String()} {
		if err := p.Endpoint().RegisterHandler("jxta.discovery", param, func(message.View, endpoint.Address) {}); err != nil {
			t.Fatalf("the peer registered a discovery for %s: %v", param, err)
		}
	}
	if err := p.Rendezvous().Read(jid.NetGroup.String(), rendezvous.DeliverFunc(noop)); err != nil {
		t.Fatalf("the peer reads the net group: %v", err)
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
		joinWire(t, rdv, id).Close()
		svc.Leave(id.String())
	}
	if rdv.Rendezvous() != svc {
		t.Fatal("the rendezvous service changed with the groups it served")
	}
	// Still running: it grants a new client a lease for a group it left.
	edge := c.addEdge("edge", "mem://rdv")
	joinWire(t, edge, ski)
	if !edge.Rendezvous().AwaitConnected(ski.String(), 5*time.Second) {
		t.Fatal("the rendezvous service stopped with the groups it served")
	}
}

// TestJoinGroupStartsNoGoroutine: a group is a lease on the peer's one
// rendezvous service, not a service of its own, so joining one starts
// no goroutine. It logs what a join — a wire and a lease — costs on a
// seeded edge: heap objects, bytes and goroutines per join, over 100
// joins, the lease grants they bring back included.
func TestJoinGroupStartsNoGoroutine(t *testing.T) {
	c := newCluster(t)
	c.addRendezvous("rdv")
	p := c.addEdge("edge", "mem://rdv")
	join := func(from, n int) {
		t.Helper()
		for i := from; i < from+n; i++ {
			joinWire(t, p, jid.FromSeed(jid.KindGroup, uint64(1000+i)))
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
	t.Logf("per join on a seeded edge: %.1f heap objects, %.0f B, %.2f goroutines",
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
	if !p.Closed() {
		t.Fatal("not closed after Close")
	}
	_, err := wire.New(p.Rendezvous(), wire.Config{Group: jid.FromSeed(jid.KindGroup, 1).String()})
	if !errors.Is(err, rendezvous.ErrClosed) {
		t.Fatalf("join after close: %v", err)
	}
}
