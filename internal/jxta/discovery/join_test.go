package discovery

import (
	"errors"
	"testing"
	"time"

	"github.com/tps-p2p/tps/internal/jxta/adv"
	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/message"
	"github.com/tps-p2p/tps/internal/jxta/peer"
	"github.com/tps-p2p/tps/internal/jxta/rendezvous"
	"github.com/tps-p2p/tps/internal/jxta/transport/memnet"
	"github.com/tps-p2p/tps/internal/jxta/wire"
)

// addFullPeer starts a peer on the cluster's network and its own
// discovery on the net group, as the paper's baselines do.
func (c *cluster) addFullPeer(name string, role rendezvous.Role, seeds ...endpoint.Address) (*peer.Peer, *Service) {
	c.t.Helper()
	node, err := c.net.AddNode(name)
	if err != nil {
		c.t.Fatal(err)
	}
	p, err := peer.New(peer.Config{
		Name:       name,
		Rendezvous: rendezvous.Config{Role: role, Seeds: seeds, LeaseTTL: 2 * time.Second},
	}, memnet.New(node))
	if err != nil {
		c.t.Fatal(err)
	}
	c.t.Cleanup(p.Close)
	disc, err := New(p.Endpoint(), p.Rendezvous(), jid.NetGroup.String())
	if err != nil {
		c.t.Fatal(err)
	}
	c.t.Cleanup(disc.Close)
	return p, disc
}

// TestDiscoveryAcrossRendezvousAndJoinGroup is the paper's full flow: a
// publisher creates a type group, its wire pipe and an advertisement; a
// subscriber discovers the advertisement remotely, joins the group from
// it and receives events. Joining a joined group again returns the wire
// it is in.
func TestDiscoveryAcrossRendezvousAndJoinGroup(t *testing.T) {
	c := newCluster(t)
	c.addFullPeer("rdv", rendezvous.RoleRendezvous)
	pub, pubDisc := c.addFullPeer("pub", rendezvous.RoleEdge, "mem://rdv")
	sub, subDisc := c.addFullPeer("sub", rendezvous.RoleEdge, "mem://rdv")
	net := jid.NetGroup.String()
	if !pub.Rendezvous().AwaitConnected(net, 5*time.Second) || !sub.Rendezvous().AwaitConnected(net, 5*time.Second) {
		t.Fatal("net groups never connected")
	}

	// Publisher side (the paper's AdvertisementsCreator).
	gid := jid.FromSeed(jid.KindGroup, 77)
	pipeAdv := &adv.PipeAdv{PipeID: jid.NewPipeIn(gid), Type: adv.PipePropagate, Name: "PS.SkiRental"}
	groupAdv := &adv.PeerGroupAdv{GroupID: gid, PeerID: pub.ID(), Name: "PS.SkiRental"}
	groupAdv.SetService(adv.ServiceAdv{Name: wire.ServiceName, Pipe: pipeAdv})
	wPub, _, err := pubDisc.JoinGroup(groupAdv)
	if err != nil {
		t.Fatal(err)
	}
	if !pub.Rendezvous().AwaitConnected(gid.String(), 5*time.Second) {
		t.Fatal("pub type group not connected")
	}
	if err := pubDisc.RemotePublish(groupAdv, 0); err != nil {
		t.Fatal(err)
	}

	// Subscriber side (the paper's AdvertisementsFinder).
	found := make(chan *adv.PeerGroupAdv, 1)
	subDisc.AddListener(func(pg *adv.PeerGroupAdv, _ jid.ID) {
		select {
		case found <- pg:
		default:
		}
	})
	if err := subDisc.GetRemoteAdvertisements("PS.*", 10); err != nil {
		t.Fatal(err)
	}
	var pg *adv.PeerGroupAdv
	select {
	case pg = <-found:
	case <-time.After(5 * time.Second):
		t.Fatal("group advertisement never discovered")
	}

	// Join from the advertisement (the paper's WireServiceFinder).
	wSub, wirePipe, err := subDisc.JoinGroup(pg)
	if err != nil {
		t.Fatal(err)
	}
	if wirePipe.PipeID != pipeAdv.PipeID {
		t.Fatalf("wire pipe %v, want %v", wirePipe.PipeID, pipeAdv.PipeID)
	}
	if again, _, err := subDisc.JoinGroup(pg); err != nil || again != wSub {
		t.Fatalf("joining a joined group again: %v, %v; want the group it is in", again, err)
	}
	if !sub.Rendezvous().AwaitConnected(gid.String(), 5*time.Second) {
		t.Fatal("sub type group not connected")
	}
	in, err := wSub.CreateInputPipe(wirePipe.PipeID)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan string, 1)
	in.SetListener(func(m *message.Message) { got <- m.Text("app", "body") })

	out, err := wPub.CreateOutputPipe(pipeAdv.PipeID)
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
		t.Fatal("event never arrived after joining from the advertisement")
	}
}

// TestJoinGroupWithoutWire: an advertisement that embeds no wire pipe
// names nothing to join.
func TestJoinGroupWithoutWire(t *testing.T) {
	c := newCluster(t)
	p, disc := c.addFullPeer("p", rendezvous.RoleEdge)
	bare := &adv.PeerGroupAdv{GroupID: jid.FromSeed(jid.KindGroup, 5), Name: "no-wire"}
	if _, _, err := disc.JoinGroup(bare); !errors.Is(err, ErrNoWireInAdv) {
		t.Fatalf("err = %v", err)
	}
	if joined(p, bare.GroupID) {
		t.Fatal("joined a group from an advertisement without a wire")
	}
}

// TestJoinGroupRefusesAUnicastPipe: a wire carries propagated pipes
// only, so an advertisement binding its wire service to a unicast pipe
// is refused before anything is joined.
func TestJoinGroupRefusesAUnicastPipe(t *testing.T) {
	c := newCluster(t)
	p, disc := c.addFullPeer("p", rendezvous.RoleEdge)
	pg := &adv.PeerGroupAdv{GroupID: jid.FromSeed(jid.KindGroup, 6), Name: "unicast"}
	pg.SetService(adv.ServiceAdv{Name: wire.ServiceName, Pipe: &adv.PipeAdv{
		PipeID: jid.FromSeed(jid.KindPipe, 17), Type: adv.PipeUnicast, Name: "unicast",
	}})
	if _, _, err := disc.JoinGroup(pg); !errors.Is(err, ErrWrongType) {
		t.Fatalf("err = %v", err)
	}
	if joined(p, pg.GroupID) {
		t.Fatal("joined a group whose wire pipe is not propagated")
	}
}

// joined reports whether a wire service is the group's reader on p: the
// group has no reader again before joined returns.
func joined(p *peer.Peer, group jid.ID) bool {
	err := p.Rendezvous().Read(group.String(), rendezvous.DeliverFunc(func(*message.Message, endpoint.Address) {}))
	if err == nil {
		_ = p.Rendezvous().Read(group.String(), nil)
	}
	return errors.Is(err, rendezvous.ErrDupReader)
}

// TestCloseLeavesTheJoinedGroups: the groups a discovery service joined
// are its own. Close closes their wires, so their groups have no reader,
// and nothing joins once the service is closed.
func TestCloseLeavesTheJoinedGroups(t *testing.T) {
	c := newCluster(t)
	p, disc := c.addFullPeer("p", rendezvous.RoleEdge)
	pg := &adv.PeerGroupAdv{GroupID: jid.FromSeed(jid.KindGroup, 8), Name: "PS.Closing"}
	pg.SetService(adv.ServiceAdv{Name: wire.ServiceName, Pipe: &adv.PipeAdv{
		PipeID: jid.NewPipeIn(pg.GroupID), Type: adv.PipePropagate, Name: "Closing",
	}})
	if _, _, err := disc.JoinGroup(pg); err != nil {
		t.Fatal(err)
	}
	if !joined(p, pg.GroupID) {
		t.Fatal("JoinGroup left the group's handler free")
	}
	disc.Close()
	if joined(p, pg.GroupID) {
		t.Fatal("the group's wire outlived the discovery service that joined it")
	}
	if _, _, err := disc.JoinGroup(pg); !errors.Is(err, ErrClosed) {
		t.Fatalf("join after close: %v", err)
	}
}
