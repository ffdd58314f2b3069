package wire_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/tps-p2p/tps/internal/jxta/adv"
	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/message"
	"github.com/tps-p2p/tps/internal/jxta/rendezvous"
	"github.com/tps-p2p/tps/internal/jxta/transport/memnet"
	"github.com/tps-p2p/tps/internal/jxta/wire"
	"github.com/tps-p2p/tps/internal/netsim"
)

type testPeer struct {
	name string
	ep   *endpoint.Service
	rdv  *rendezvous.Service
	wire *wire.Service
}

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

func (c *cluster) addPeer(name string, seed uint64, role rendezvous.Role, seeds ...endpoint.Address) *testPeer {
	c.t.Helper()
	node, err := c.net.AddNode(name)
	if err != nil {
		c.t.Fatal(err)
	}
	ep := endpoint.New(jid.FromSeed(jid.KindPeer, seed))
	if err := ep.AddTransport(memnet.New(node)); err != nil {
		c.t.Fatal(err)
	}
	rdv, err := rendezvous.New(ep, rendezvous.Config{
		Role: role, GroupParam: "net", Seeds: seeds, LeaseTTL: 2 * time.Second,
	})
	if err != nil {
		c.t.Fatal(err)
	}
	ws, err := wire.New(ep, rdv, wire.Config{Group: "net"})
	if err != nil {
		c.t.Fatal(err)
	}
	p := &testPeer{name: name, ep: ep, rdv: rdv, wire: ws}
	c.t.Cleanup(func() {
		p.wire.Close()
		p.rdv.Close()
		_ = p.ep.Close()
	})
	return p
}

func wireAdv(seed uint64, name string) *adv.PipeAdv {
	return &adv.PipeAdv{PipeID: jid.FromSeed(jid.KindPipe, seed), Type: adv.PipePropagate, Name: name}
}

func connect(t *testing.T, peers ...*testPeer) {
	t.Helper()
	for _, p := range peers {
		if !p.rdv.AwaitConnected(5 * time.Second) {
			t.Fatalf("%s never connected", p.name)
		}
	}
}

type eventSink struct {
	mu   sync.Mutex
	got  []string
	wake chan struct{}
}

func newEventSink() *eventSink { return &eventSink{wake: make(chan struct{}, 1)} }

func (s *eventSink) listener(m *message.Message) {
	s.mu.Lock()
	s.got = append(s.got, m.Text("app", "body"))
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

func (s *eventSink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.got)
}

func (s *eventSink) waitCount(t *testing.T, n int) []string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		if len(s.got) >= n {
			out := append([]string(nil), s.got...)
			s.mu.Unlock()
			return out
		}
		s.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %d messages (have %d)", n, s.count())
		}
		select {
		case <-s.wake:
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func TestManyToManyFanOut(t *testing.T) {
	c := newCluster(t)
	c.addPeer("rdv", 1, rendezvous.RoleRendezvous)
	pub := c.addPeer("pub", 2, rendezvous.RoleEdge, "mem://rdv")
	s1 := c.addPeer("s1", 3, rendezvous.RoleEdge, "mem://rdv")
	s2 := c.addPeer("s2", 4, rendezvous.RoleEdge, "mem://rdv")
	connect(t, pub, s1, s2)

	pa := wireAdv(10, "PS.SkiRental")
	sink1, sink2 := newEventSink(), newEventSink()
	for p, sink := range map[*testPeer]*eventSink{s1: sink1, s2: sink2} {
		in, err := p.wire.CreateInputPipe(pa)
		if err != nil {
			t.Fatal(err)
		}
		in.SetListener(sink.listener)
	}
	out, err := pub.wire.CreateOutputPipe(pa)
	if err != nil {
		t.Fatal(err)
	}
	m := message.New(pub.ep.PeerID())
	m.AddString("app", "body", "offer")
	if err := out.Send(m); err != nil {
		t.Fatal(err)
	}
	if got := sink1.waitCount(t, 1); got[0] != "offer" {
		t.Fatalf("s1 got %v", got)
	}
	if got := sink2.waitCount(t, 1); got[0] != "offer" {
		t.Fatalf("s2 got %v", got)
	}
}

func TestLoopbackToOwnInputPipe(t *testing.T) {
	c := newCluster(t)
	c.addPeer("rdv", 1, rendezvous.RoleRendezvous)
	p := c.addPeer("pubsub", 2, rendezvous.RoleEdge, "mem://rdv")
	connect(t, p)

	pa := wireAdv(11, "loopback")
	in, err := p.wire.CreateInputPipe(pa)
	if err != nil {
		t.Fatal(err)
	}
	sink := newEventSink()
	in.SetListener(sink.listener)
	out, err := p.wire.CreateOutputPipe(pa)
	if err != nil {
		t.Fatal(err)
	}
	m := message.New(p.ep.PeerID())
	m.AddString("app", "body", "self")
	if err := out.Send(m); err != nil {
		t.Fatal(err)
	}
	if got := sink.waitCount(t, 1); got[0] != "self" {
		t.Fatalf("got %v", got)
	}
	// Exactly once, even though the mesh may echo the message back.
	time.Sleep(100 * time.Millisecond)
	if sink.count() != 1 {
		t.Fatalf("loopback delivered %d times", sink.count())
	}
}

func TestIsolatedPeerStillLoopsBack(t *testing.T) {
	c := newCluster(t)
	p := c.addPeer("alone", 1, rendezvous.RoleEdge) // no seeds at all
	pa := wireAdv(12, "solo")
	in, err := p.wire.CreateInputPipe(pa)
	if err != nil {
		t.Fatal(err)
	}
	sink := newEventSink()
	in.SetListener(sink.listener)
	out, err := p.wire.CreateOutputPipe(pa)
	if err != nil {
		t.Fatal(err)
	}
	m := message.New(p.ep.PeerID())
	m.AddString("app", "body", "echo")
	if err := out.Send(m); err != nil {
		t.Fatalf("isolated send should succeed via loopback: %v", err)
	}
	if got := sink.waitCount(t, 1); got[0] != "echo" {
		t.Fatalf("got %v", got)
	}
}

func TestTwoWiresAreIsolated(t *testing.T) {
	c := newCluster(t)
	c.addPeer("rdv", 1, rendezvous.RoleRendezvous)
	pub := c.addPeer("pub", 2, rendezvous.RoleEdge, "mem://rdv")
	sub := c.addPeer("sub", 3, rendezvous.RoleEdge, "mem://rdv")
	connect(t, pub, sub)

	ski := wireAdv(13, "PS.SkiRental")
	chat := wireAdv(14, "PS.Chat")
	skiSink, chatSink := newEventSink(), newEventSink()
	inSki, err := sub.wire.CreateInputPipe(ski)
	if err != nil {
		t.Fatal(err)
	}
	inSki.SetListener(skiSink.listener)
	inChat, err := sub.wire.CreateInputPipe(chat)
	if err != nil {
		t.Fatal(err)
	}
	inChat.SetListener(chatSink.listener)

	outSki, err := pub.wire.CreateOutputPipe(ski)
	if err != nil {
		t.Fatal(err)
	}
	m := message.New(pub.ep.PeerID())
	m.AddString("app", "body", "ski-only")
	if err := outSki.Send(m); err != nil {
		t.Fatal(err)
	}
	skiSink.waitCount(t, 1)
	time.Sleep(50 * time.Millisecond)
	if chatSink.count() != 0 {
		t.Fatal("message leaked across wires")
	}
}

func TestManyPublishersManySubscribers(t *testing.T) {
	c := newCluster(t)
	c.addPeer("rdv", 1, rendezvous.RoleRendezvous)
	pa := wireAdv(15, "m2m")
	const pubs, subs, perPub = 3, 3, 10

	var sinks []*eventSink
	for i := 0; i < subs; i++ {
		p := c.addPeer("sub"+string(rune('0'+i)), uint64(10+i), rendezvous.RoleEdge, "mem://rdv")
		connect(t, p)
		in, err := p.wire.CreateInputPipe(pa)
		if err != nil {
			t.Fatal(err)
		}
		sink := newEventSink()
		in.SetListener(sink.listener)
		sinks = append(sinks, sink)
	}
	var outs []*wire.OutputPipe
	for i := 0; i < pubs; i++ {
		p := c.addPeer("pub"+string(rune('0'+i)), uint64(20+i), rendezvous.RoleEdge, "mem://rdv")
		connect(t, p)
		out, err := p.wire.CreateOutputPipe(pa)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, out)
	}
	for i, out := range outs {
		for j := 0; j < perPub; j++ {
			m := message.New(jid.FromSeed(jid.KindPeer, uint64(20+i)))
			m.AddString("app", "body", "x")
			if err := out.Send(m); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, sink := range sinks {
		got := sink.waitCount(t, pubs*perPub)
		if len(got) != pubs*perPub {
			t.Fatalf("sub%d received %d, want %d", i, len(got), pubs*perPub)
		}
	}
}

func TestDedupeCountsDuplicates(t *testing.T) {
	// Two rendezvous seeded with each other produce duplicate deliveries
	// at the wire layer; the dedupe cache absorbs them.
	c := newCluster(t)
	c.addPeer("rdvA", 1, rendezvous.RoleRendezvous, "mem://rdvB")
	c.addPeer("rdvB", 2, rendezvous.RoleRendezvous, "mem://rdvA")
	pub := c.addPeer("pub", 3, rendezvous.RoleEdge, "mem://rdvA", "mem://rdvB")
	sub := c.addPeer("sub", 4, rendezvous.RoleEdge, "mem://rdvA", "mem://rdvB")
	connect(t, pub, sub)
	time.Sleep(100 * time.Millisecond) // let the rdv mesh link up

	pa := wireAdv(16, "dup-wire")
	in, err := sub.wire.CreateInputPipe(pa)
	if err != nil {
		t.Fatal(err)
	}
	sink := newEventSink()
	in.SetListener(sink.listener)
	out, err := pub.wire.CreateOutputPipe(pa)
	if err != nil {
		t.Fatal(err)
	}
	const total = 10
	for i := 0; i < total; i++ {
		m := message.New(pub.ep.PeerID())
		m.AddString("app", "body", "d")
		if err := out.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	sink.waitCount(t, total)
	c.net.WaitQuiesce(5 * time.Second)
	if sink.count() != total {
		t.Fatalf("delivered %d, want exactly %d", sink.count(), total)
	}
	// The sub leased with both rendezvous, so duplicates must have been
	// suppressed (each message arrives via two paths).
	if c := sub.wire.Snapshot().Counters; c["duplicates"] == 0 {
		t.Logf("warning: no duplicates observed (topology may have deduped earlier); stats %+v", c)
	}
}

func TestWrongTypeRejected(t *testing.T) {
	c := newCluster(t)
	p := c.addPeer("p", 1, rendezvous.RoleEdge)
	bad := &adv.PipeAdv{PipeID: jid.FromSeed(jid.KindPipe, 17), Type: adv.PipeUnicast, Name: "unicast"}
	if _, err := p.wire.CreateInputPipe(bad); !errors.Is(err, wire.ErrWrongType) {
		t.Fatalf("input err = %v", err)
	}
	if _, err := p.wire.CreateOutputPipe(bad); !errors.Is(err, wire.ErrWrongType) {
		t.Fatalf("output err = %v", err)
	}
}

func TestDuplicateInputRejected(t *testing.T) {
	c := newCluster(t)
	p := c.addPeer("p", 1, rendezvous.RoleEdge)
	pa := wireAdv(18, "dup-in")
	if _, err := p.wire.CreateInputPipe(pa); err != nil {
		t.Fatal(err)
	}
	if _, err := p.wire.CreateInputPipe(pa); !errors.Is(err, wire.ErrDupInput) {
		t.Fatalf("err = %v", err)
	}
}

func TestClosedInputPipeStopsDelivery(t *testing.T) {
	c := newCluster(t)
	c.addPeer("rdv", 1, rendezvous.RoleRendezvous)
	pub := c.addPeer("pub", 2, rendezvous.RoleEdge, "mem://rdv")
	sub := c.addPeer("sub", 3, rendezvous.RoleEdge, "mem://rdv")
	connect(t, pub, sub)

	pa := wireAdv(19, "closing")
	in, err := sub.wire.CreateInputPipe(pa)
	if err != nil {
		t.Fatal(err)
	}
	sink := newEventSink()
	in.SetListener(sink.listener)
	out, err := pub.wire.CreateOutputPipe(pa)
	if err != nil {
		t.Fatal(err)
	}
	m := message.New(pub.ep.PeerID())
	m.AddString("app", "body", "one")
	if err := out.Send(m); err != nil {
		t.Fatal(err)
	}
	sink.waitCount(t, 1)
	in.Close()
	m2 := message.New(pub.ep.PeerID())
	m2.AddString("app", "body", "two")
	if err := out.Send(m2); err != nil {
		t.Fatal(err)
	}
	c.net.WaitQuiesce(5 * time.Second)
	if sink.count() != 1 {
		t.Fatalf("closed pipe still delivered: %d", sink.count())
	}
	// Re-creating the input pipe after close works.
	if _, err := sub.wire.CreateInputPipe(pa); err != nil {
		t.Fatalf("recreate after close: %v", err)
	}
}

func TestStatsCounts(t *testing.T) {
	c := newCluster(t)
	c.addPeer("rdv", 1, rendezvous.RoleRendezvous)
	pub := c.addPeer("pub", 2, rendezvous.RoleEdge, "mem://rdv")
	sub := c.addPeer("sub", 3, rendezvous.RoleEdge, "mem://rdv")
	connect(t, pub, sub)
	pa := wireAdv(20, "stats")
	in, err := sub.wire.CreateInputPipe(pa)
	if err != nil {
		t.Fatal(err)
	}
	sink := newEventSink()
	in.SetListener(sink.listener)
	out, err := pub.wire.CreateOutputPipe(pa)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		m := message.New(pub.ep.PeerID())
		m.AddString("app", "body", "s")
		if err := out.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	sink.waitCount(t, 5)
	if c := pub.wire.Snapshot().Counters; c["sent"] != 5 {
		t.Fatalf("pub stats %+v", c)
	}
	if c := sub.wire.Snapshot().Counters; c["received"] != 5 {
		t.Fatalf("sub stats %+v", c)
	}
}
