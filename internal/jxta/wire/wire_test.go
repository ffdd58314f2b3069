package wire_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tps-p2p/tps/internal/israce"
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
	// wrap, when set, goes around the transport of the next peer.
	wrap func(endpoint.Transport) endpoint.Transport
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
	var tr endpoint.Transport = memnet.New(node)
	if c.wrap != nil {
		tr, c.wrap = c.wrap(tr), nil
	}
	if err := ep.AddTransport(tr); err != nil {
		c.t.Fatal(err)
	}
	rdv, err := rendezvous.New(ep, rendezvous.Config{
		Role: role, Seeds: seeds, LeaseTTL: 2 * time.Second,
	})
	if err != nil {
		c.t.Fatal(err)
	}
	rdv.Join("net")
	ws, err := wire.New(rdv, wire.Config{Group: "net"})
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

func pipeID(seed uint64) jid.ID { return jid.FromSeed(jid.KindPipe, seed) }

func connect(t *testing.T, peers ...*testPeer) {
	t.Helper()
	for _, p := range peers {
		if !p.rdv.AwaitConnected("net", 5*time.Second) {
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

	pa := pipeID(10)
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

	pa := pipeID(11)
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
	pa := pipeID(12)
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

	ski := pipeID(13)
	chat := pipeID(14)
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
	pa := pipeID(15)
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

// TestDedupeCountsDuplicates: two rendezvous meshed with each other, a
// subscriber leased with both. Every message reaches the subscriber
// twice — from the rendezvous the publisher sent it to and, forwarded,
// from the other — and its input pipe exactly once: the group's
// rendezvous service drops the second copy before the wire service is
// asked, which is why the wire service keeps no cache of its own.
func TestDedupeCountsDuplicates(t *testing.T) {
	c := newCluster(t)
	rdvA := c.addPeer("rdvA", 1, rendezvous.RoleRendezvous, "mem://rdvB")
	rdvB := c.addPeer("rdvB", 2, rendezvous.RoleRendezvous, "mem://rdvA")
	pub := c.addPeer("pub", 3, rendezvous.RoleEdge, "mem://rdvA", "mem://rdvB")
	sub := c.addPeer("sub", 4, rendezvous.RoleEdge, "mem://rdvA", "mem://rdvB")
	connect(t, pub, sub, rdvA, rdvB)
	waitLeases := func(p *testPeer) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for len(p.rdv.ConnectedRendezvous("net")) < 2 {
			if time.Now().After(deadline) {
				t.Fatalf("%s leased with %d of 2 rendezvous", p.name, len(p.rdv.ConnectedRendezvous("net")))
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitLeases(pub)
	waitLeases(sub)

	pa := pipeID(16)
	in, err := sub.wire.CreateInputPipe(pa)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	got := make(map[jid.ID]int)
	in.SetListener(func(m *message.Message) {
		mu.Lock()
		got[m.ID]++
		mu.Unlock()
	})
	out, err := pub.wire.CreateOutputPipe(pa)
	if err != nil {
		t.Fatal(err)
	}
	const total = 10
	var sent []jid.ID
	for i := 0; i < total; i++ {
		m := message.New(pub.ep.PeerID())
		m.AddString("app", "body", "d")
		if err := out.Send(m); err != nil {
			t.Fatal(err)
		}
		sent = append(sent, m.ID)
	}
	c.net.WaitQuiesce(5 * time.Second)
	mu.Lock()
	for _, id := range sent {
		if got[id] != 1 {
			t.Errorf("message %v reached the input pipe %d times, want once", id.Short(), got[id])
		}
	}
	mu.Unlock()
	if c := sub.wire.Snapshot().Counters; c["received"] != total {
		t.Errorf("wire received = %d, want %d", c["received"], total)
	}
	// Each message came in from both rendezvous, and from each of them
	// directly and forwarded by the other.
	if c := sub.rdv.Snapshot().Counters; c["duplicates"] < total || c["delivered"] != total {
		t.Errorf("subscriber's rendezvous service: duplicates %d, delivered %d; want at least %d dropped and %d delivered",
			c["duplicates"], c["delivered"], total, total)
	}
}

// TestLoopbackSharesTheMessage is the -race gate on what a send shares:
// the local listener is handed the sender's message itself and reads
// every element of it on a goroutine of its own, while the sender goes
// on — Propagate stamps a Dup of the message for the mesh, which
// reaches two remote peers, and the next pipe's Send, as an engine
// attached to two groups does it, delivers and propagates it again; a
// message queued before a listener existed is flushed to it by yet
// another goroutine. Nothing may write what the readers read, and the
// sender's message is as it was built after both sends.
func TestLoopbackSharesTheMessage(t *testing.T) {
	c := newCluster(t)
	c.addPeer("rdv", 1, rendezvous.RoleRendezvous)
	p := c.addPeer("pubsub", 2, rendezvous.RoleEdge, "mem://rdv")
	remotes := []*testPeer{c.addPeer("sub", 3, rendezvous.RoleEdge, "mem://rdv"), c.addPeer("sub2", 4, rendezvous.RoleEdge, "mem://rdv")}
	connect(t, p, remotes[0], remotes[1])

	var readers sync.WaitGroup
	var mu sync.Mutex
	heard := make(map[*message.Message]int)
	listener := func(m *message.Message) {
		mu.Lock()
		heard[m]++
		mu.Unlock()
		readers.Add(1)
		go func() {
			defer readers.Done()
			n := 0
			for _, e := range m.Elements() {
				n += len(e.Namespace) + len(e.Name) + len(e.MimeType) + len(e.Data)
			}
			if m.Text("app", "body") != "shared" || m.WireSize() < n || m.Len() != 2 || len(m.Path) != 0 {
				t.Errorf("listener reads %d elements, path %v", m.Len(), m.Path)
			}
		}()
	}
	remoteHeard := 0
	remoteListener := func(m *message.Message) {
		mu.Lock()
		remoteHeard++
		mu.Unlock()
	}
	var ins []*wire.InputPipe
	var outs []*wire.OutputPipe
	for i := uint64(0); i < 2; i++ {
		pa := pipeID(30 + i)
		in, err := p.wire.CreateInputPipe(pa)
		if err != nil {
			t.Fatal(err)
		}
		out, err := p.wire.CreateOutputPipe(pa)
		if err != nil {
			t.Fatal(err)
		}
		for _, remote := range remotes {
			rin, err := remote.wire.CreateInputPipe(pa)
			if err != nil {
				t.Fatal(err)
			}
			rin.SetListener(remoteListener)
		}
		ins, outs = append(ins, in), append(outs, out)
	}
	ins[0].SetListener(listener) // ins[1] queues until one is set

	const total = 50
	msgs := make([]*message.Message, total)
	for i := range msgs {
		msgs[i] = message.New(p.ep.PeerID())
		msgs[i].AddString("app", "body", "shared")
		msgs[i].AddBytes("app", "pad", make([]byte, 256))
	}
	var senders sync.WaitGroup
	senders.Add(2)
	go func() {
		defer senders.Done()
		for _, m := range msgs {
			for _, out := range outs {
				if err := out.Send(m); err != nil {
					t.Error(err)
				}
			}
		}
	}()
	go func() {
		defer senders.Done()
		ins[1].SetListener(listener) // flushes what pipe 1 queued so far
	}()
	senders.Wait()
	c.net.WaitQuiesce(5 * time.Second)
	readers.Wait()
	mu.Lock()
	defer mu.Unlock()
	for i, m := range msgs {
		// Once on each local pipe, and the very message that was sent.
		if heard[m] != 2 {
			t.Errorf("message %d reached the local listeners %d times as itself, want 2", i, heard[m])
		}
		if m.Len() != 2 || len(m.Path) != 0 || m.TTL != message.DefaultTTL {
			t.Errorf("message %d was written to: %v, path %v, TTL %d", i, m.Elements(), m.Path, m.TTL)
		}
	}
	// Each remote peer decodes one copy per message: the second pipe's
	// send of the same message ID is a duplicate to the mesh.
	if remoteHeard != len(remotes)*total || len(heard) != total {
		t.Errorf("remote listeners heard %d messages, local ones %d different ones; want %d and %d", remoteHeard, len(heard), len(remotes)*total, total)
	}
}

// swallow is a transport that, once closed to traffic, drops what it is
// given to send, and that formats its address once: what is left of a
// send is what the layers above the transport allocate.
type swallow struct {
	endpoint.Transport
	addr   endpoint.Address
	closed atomic.Bool
}

func (s *swallow) LocalAddress() endpoint.Address { return s.addr }

func (s *swallow) Send(to endpoint.Address, frame []byte) error {
	if s.closed.Load() {
		return nil
	}
	return s.Transport.Send(to, frame)
}

// TestSendAllocBudget: sending a built message on a wire pipe, with a
// local listener and one leased rendezvous to propagate to, allocates the
// copy Propagate takes and stamps — one block — and the element headers
// that copy clones to take Propagate's three elements. The message is
// copied neither for the pipe ID nor for the loopback, and the frame
// comes from the pool.
func TestSendAllocBudget(t *testing.T) {
	if israce.Enabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	c := newCluster(t)
	c.addPeer("rdv", 1, rendezvous.RoleRendezvous)
	var tr *swallow
	c.wrap = func(inner endpoint.Transport) endpoint.Transport {
		tr = &swallow{Transport: inner, addr: inner.LocalAddress()}
		return tr
	}
	p := c.addPeer("pubsub", 2, rendezvous.RoleEdge, "mem://rdv")
	connect(t, p)
	pa := pipeID(40)
	in, err := p.wire.CreateInputPipe(pa)
	if err != nil {
		t.Fatal(err)
	}
	heard := 0
	in.SetListener(func(*message.Message) { heard++ })
	out, err := p.wire.CreateOutputPipe(pa)
	if err != nil {
		t.Fatal(err)
	}
	m := message.New(p.ep.PeerID())
	m.AddString("app", "body", "budget")
	m.AddBytes("app", "pad", make([]byte, 1910))
	c.net.WaitQuiesce(5 * time.Second)
	tr.closed.Store(true)
	propagated := p.rdv.Snapshot().Counters["propagated"]
	allocs := testing.AllocsPerRun(200, func() {
		if err := out.Send(m); err != nil {
			t.Fatal(err)
		}
	})
	if heard < 200 || p.rdv.Snapshot().Counters["propagated"]-propagated < 200 {
		t.Fatalf("%d sends looped back, %d propagated", heard, p.rdv.Snapshot().Counters["propagated"]-propagated)
	}
	if allocs > 2 {
		t.Errorf("Send allocates %.1f objects, budget is 2", allocs)
	}
}

func TestDuplicateInputRejected(t *testing.T) {
	c := newCluster(t)
	p := c.addPeer("p", 1, rendezvous.RoleEdge)
	pa := pipeID(18)
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

	pa := pipeID(19)
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
	pa := pipeID(20)
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
