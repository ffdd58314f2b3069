package peer_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/tps-p2p/tps/internal/jxta/adv"
	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/message"
	"github.com/tps-p2p/tps/internal/jxta/peer"
	"github.com/tps-p2p/tps/internal/jxta/peergroup"
	"github.com/tps-p2p/tps/internal/jxta/peerinfo"
	"github.com/tps-p2p/tps/internal/jxta/rendezvous"
	"github.com/tps-p2p/tps/internal/jxta/resolver"
	"github.com/tps-p2p/tps/internal/jxta/transport/memnet"
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

// addDaemon starts a rendezvous daemon peer.
func (c *cluster) addDaemon(name string) *peer.Peer {
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
	if _, err := p.EnableDaemon(); err != nil {
		c.t.Fatal(err)
	}
	c.t.Cleanup(p.Close)
	return p
}

// addEdge starts an ordinary edge peer seeded with the daemon.
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
	net := p.NetGroup()
	if net == nil {
		t.Fatal("no net group after boot")
	}
	if net.ID() != jid.NetGroup {
		t.Fatalf("net group ID %v", net.ID())
	}
	if len(p.Groups()) != 1 {
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
	g, err := p.JoinGroup(peergroup.Config{ID: gid, Name: "custom"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.JoinGroup(peergroup.Config{ID: gid, Name: "custom"}); !errors.Is(err, peer.ErrAlreadyIn) {
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
	if _, err := p.JoinGroup(peergroup.Config{ID: gid, Name: "custom"}); err != nil {
		t.Fatalf("re-join: %v", err)
	}
}

func TestWirePubSubThroughDaemonInTypeGroup(t *testing.T) {
	// The paper's core substrate flow: per-type peer groups bridged by a
	// rendezvous daemon that joined none of them.
	c := newCluster(t)
	c.addDaemon("rdv")
	pub := c.addEdge("pub", "mem://rdv")
	sub := c.addEdge("sub", "mem://rdv")

	gid := jid.FromSeed(jid.KindGroup, 7)
	gPub, err := pub.JoinGroup(peergroup.Config{ID: gid, Name: "PS.SkiRental"})
	if err != nil {
		t.Fatal(err)
	}
	gSub, err := sub.JoinGroup(peergroup.Config{ID: gid, Name: "PS.SkiRental"})
	if err != nil {
		t.Fatal(err)
	}
	if !gPub.AwaitRendezvous(5*time.Second) || !gSub.AwaitRendezvous(5*time.Second) {
		t.Fatal("type group never connected to daemon")
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
		t.Fatal("event never crossed the daemon")
	}
}

func TestGroupIsolationAcrossTypes(t *testing.T) {
	c := newCluster(t)
	c.addDaemon("rdv")
	pub := c.addEdge("pub", "mem://rdv")
	sub := c.addEdge("sub", "mem://rdv")

	ski := jid.FromSeed(jid.KindGroup, 1)
	chat := jid.FromSeed(jid.KindGroup, 2)
	gPubSki, err := pub.JoinGroup(peergroup.Config{ID: ski, Name: "PS.Ski"})
	if err != nil {
		t.Fatal(err)
	}
	gSubChat, err := sub.JoinGroup(peergroup.Config{ID: chat, Name: "PS.Chat"})
	if err != nil {
		t.Fatal(err)
	}
	if !gPubSki.AwaitRendezvous(5*time.Second) || !gSubChat.AwaitRendezvous(5*time.Second) {
		t.Fatal("not connected")
	}
	// Same pipe ID in both groups: traffic must not leak across.
	pid := jid.FromSeed(jid.KindPipe, 9)
	inChat, err := gSubChat.Wire.CreateInputPipe(&adv.PipeAdv{PipeID: pid, Type: adv.PipePropagate, Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	leaked := 0
	inChat.SetListener(func(*message.Message) { mu.Lock(); leaked++; mu.Unlock() })

	outSki, err := gPubSki.Wire.CreateOutputPipe(&adv.PipeAdv{PipeID: pid, Type: adv.PipePropagate, Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if err := outSki.Send(message.New(pub.ID())); err != nil {
		t.Fatal(err)
	}
	c.net.WaitQuiesce(5 * time.Second)
	mu.Lock()
	defer mu.Unlock()
	if leaked != 0 {
		t.Fatalf("cross-group leak: %d messages", leaked)
	}
}

func TestDiscoveryAcrossDaemonAndJoinFromAdv(t *testing.T) {
	// Full paper flow: publisher creates a type group + wire pipe +
	// advertisement; subscriber discovers the advertisement remotely,
	// joins the group from it and receives events.
	c := newCluster(t)
	c.addDaemon("rdv")
	pub := c.addEdge("pub", "mem://rdv")
	sub := c.addEdge("sub", "mem://rdv")
	if !pub.NetGroup().AwaitRendezvous(5*time.Second) || !sub.NetGroup().AwaitRendezvous(5*time.Second) {
		t.Fatal("net groups never connected")
	}

	// Publisher side (the paper's AdvertisementsCreator).
	gid := jid.FromSeed(jid.KindGroup, 77)
	gPub, err := pub.JoinGroup(peergroup.Config{ID: gid, Name: "PS.SkiRental"})
	if err != nil {
		t.Fatal(err)
	}
	if !gPub.AwaitRendezvous(5 * time.Second) {
		t.Fatal("pub type group not connected")
	}
	pipeAdv := &adv.PipeAdv{PipeID: jid.NewPipeIn(gid), Type: adv.PipePropagate, Name: "PS.SkiRental"}
	groupAdv := gPub.Advertisement(pipeAdv)
	if err := pub.NetGroup().Discovery.RemotePublish(groupAdv, 0); err != nil {
		t.Fatal(err)
	}

	// Subscriber side (the paper's AdvertisementsFinder).
	found := make(chan *adv.PeerGroupAdv, 1)
	sub.NetGroup().Discovery.AddListener(func(a adv.Advertisement, _ jid.ID) {
		if pg, ok := a.(*adv.PeerGroupAdv); ok {
			select {
			case found <- pg:
			default:
			}
		}
	})
	if err := sub.NetGroup().Discovery.GetRemoteAdvertisements(adv.Group, "Name", "PS.*", 10); err != nil {
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
	if !gSub.AwaitRendezvous(5 * time.Second) {
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

func TestPeerInfoAcrossPeers(t *testing.T) {
	c := newCluster(t)
	c.addDaemon("rdv")
	a := c.addEdge("a", "mem://rdv")
	b := c.addEdge("b", "mem://rdv")
	if !a.NetGroup().AwaitRendezvous(5*time.Second) || !b.NetGroup().AwaitRendezvous(5*time.Second) {
		t.Fatal("not connected")
	}
	info, err := a.PeerInfo().Query("mem://b", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if info.PeerID != b.ID() {
		t.Fatalf("info.PeerID = %v, want %v", info.PeerID, b.ID())
	}
	if info.MsgsOut == 0 {
		t.Fatal("b shows no outbound traffic despite lease renewals")
	}
	// One responder per peer, on the net group: a joined group has none.
	g, err := b.JoinGroup(peergroup.Config{ID: jid.FromSeed(jid.KindGroup, 7), Name: "typed"})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Resolver.RegisterHandler(peerinfo.HandlerName, resolver.HandlerFunc{}); err != nil {
		t.Fatalf("a joined group registered its own peer-info handler: %v", err)
	}
	if err := b.NetGroup().Resolver.RegisterHandler(peerinfo.HandlerName, resolver.HandlerFunc{}); !errors.Is(err, resolver.ErrDupHandler) {
		t.Fatalf("net group's peer-info handler: %v, want ErrDupHandler", err)
	}
}

func TestAnnounceSelfAndSelfAdvertisement(t *testing.T) {
	c := newCluster(t)
	c.addDaemon("rdv")
	a := c.addEdge("a", "mem://rdv")
	b := c.addEdge("b", "mem://rdv")
	if !a.NetGroup().AwaitRendezvous(5*time.Second) || !b.NetGroup().AwaitRendezvous(5*time.Second) {
		t.Fatal("not connected")
	}
	sa := a.SelfAdvertisement()
	if sa.PeerID != a.ID() || len(sa.Addresses) == 0 {
		t.Fatalf("self adv %+v", sa)
	}
	heard := make(chan adv.Advertisement, 4)
	b.NetGroup().Discovery.AddListener(func(x adv.Advertisement, _ jid.ID) { heard <- x })
	if err := a.AnnounceSelf(); err != nil {
		t.Fatal(err)
	}
	select {
	case x := <-heard:
		if x.AdvID() != a.ID() {
			t.Fatalf("heard %v", x.AdvID())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("announcement never heard")
	}
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
	if _, err := p.JoinGroup(peergroup.Config{ID: jid.FromSeed(jid.KindGroup, 1)}); !errors.Is(err, peer.ErrClosed) {
		t.Fatalf("join after close: %v", err)
	}
}
