package rendezvous_test

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
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
	"github.com/tps-p2p/tps/internal/netsim"
	"github.com/tps-p2p/tps/internal/obs"
)

// testPeer bundles an endpoint + rendezvous service on a netsim node.
type testPeer struct {
	name string
	ep   *endpoint.Service
	rdv  *rendezvous.Service
}

type cluster struct {
	t   *testing.T
	net *netsim.Network
	// wrap, when set, goes around the transport of the next service.
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
	return c.addService(name, seed, rendezvous.Config{Role: role, Seeds: seeds})
}

// addService starts a rendezvous service with an arbitrary configuration
// (2 s leases unless it names others, an edge in group "net") on its own
// node.
func (c *cluster) addService(name string, seed uint64, cfg rendezvous.Config) *testPeer {
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
	if cfg.LeaseTTL == 0 {
		cfg.LeaseTTL = 2 * time.Second
	}
	rdv, err := rendezvous.New(ep, cfg)
	if err != nil {
		c.t.Fatal(err)
	}
	rdv.Join("net")
	p := &testPeer{name: name, ep: ep, rdv: rdv}
	c.t.Cleanup(func() {
		p.rdv.Close()
		_ = p.ep.Close()
	})
	return p
}

// subscribe makes a sink the reader of group on p.
func subscribe(t *testing.T, p *testPeer, group string) *msgSink {
	t.Helper()
	s := &msgSink{ch: make(chan *message.Message, 256)}
	if err := p.rdv.Read(group, s); err != nil {
		t.Fatal(err)
	}
	return s
}

// msgSink is a group's reader that records the frames, decoded, and the
// range signals it is handed.
type msgSink struct {
	mu     sync.Mutex
	msgs   []*message.Message
	ranges []rendezvous.Range
	ch     chan *message.Message
}

func (s *msgSink) Deliver(v message.View, _ endpoint.Address) {
	msg := v.Message() // kept past the call
	s.mu.Lock()
	s.msgs = append(s.msgs, msg)
	s.mu.Unlock()
	s.ch <- msg
}

func (s *msgSink) Logged(jid.ID, uint64) {}

func (s *msgSink) Answered(r rendezvous.Range) {
	s.mu.Lock()
	s.ranges = append(s.ranges, r)
	s.mu.Unlock()
}

func (s *msgSink) answers() []rendezvous.Range {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.ranges)
}

func (s *msgSink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.msgs)
}

func (s *msgSink) waitOne(t *testing.T) *message.Message {
	t.Helper()
	select {
	case m := <-s.ch:
		return m
	case <-time.After(5 * time.Second):
		t.Fatal("timeout waiting for propagated message")
		return nil
	}
}

func TestEdgeConnectsToRendezvous(t *testing.T) {
	c := newCluster(t)
	r := c.addPeer("rdv", 1, rendezvous.RoleRendezvous)
	e := c.addPeer("edge", 2, rendezvous.RoleEdge, "mem://rdv")
	if !e.rdv.AwaitConnected("net", 5*time.Second) {
		t.Fatal("edge never connected")
	}
	got := e.rdv.ConnectedRendezvous("net")
	if len(got) != 1 || got[0] != r.ep.PeerID() {
		t.Fatalf("connected rdvs = %v", got)
	}
	waitFor(t, func() bool { return clients(r.rdv) == 1 })
	if snap := r.rdv.Snapshot(); snap.Gauges["leases"] != 1 {
		t.Fatalf("rdv stats %+v", snap)
	}
}

func TestPropagateThroughOneRendezvous(t *testing.T) {
	c := newCluster(t)
	c.addPeer("rdv", 1, rendezvous.RoleRendezvous)
	pub := c.addPeer("pub", 2, rendezvous.RoleEdge, "mem://rdv")
	sub1 := c.addPeer("sub1", 3, rendezvous.RoleEdge, "mem://rdv")
	sub2 := c.addPeer("sub2", 4, rendezvous.RoleEdge, "mem://rdv")
	for _, p := range []*testPeer{pub, sub1, sub2} {
		if !p.rdv.AwaitConnected("net", 5*time.Second) {
			t.Fatalf("%s never connected", p.name)
		}
	}
	s1 := subscribe(t, sub1, "net")
	s2 := subscribe(t, sub2, "net")
	sp := subscribe(t, pub, "net")

	m := message.New(pub.ep.PeerID())
	m.AddString("app", "body", "hello-mesh")
	if err := pub.rdv.Propagate(m, "app.events", "net"); err != nil {
		t.Fatal(err)
	}
	if got := s1.waitOne(t); got.Text("app", "body") != "hello-mesh" {
		t.Fatalf("sub1 got %q", got.Text("app", "body"))
	}
	if got := s2.waitOne(t); got.Text("app", "body") != "hello-mesh" {
		t.Fatalf("sub2 got %q", got.Text("app", "body"))
	}
	// Propagate does not loop back to the publisher.
	time.Sleep(50 * time.Millisecond)
	if sp.count() != 0 {
		t.Fatal("publisher received its own propagation")
	}
}

// TestForwardStampsACopyOfADeliveredMessage: a rendezvous with a reader
// for the group both delivers and forwards. The reader keeps the message
// decoded for it, and the hop stamps its own frame, written from the
// received bytes — the message the reader holds still reads as it
// arrived — while a rendezvous with no reader decodes nothing, and the
// next hop sees both on the path.
func TestForwardStampsACopyOfADeliveredMessage(t *testing.T) {
	c := newCluster(t)
	rdvA := c.addPeer("rdvA", 1, rendezvous.RoleRendezvous)
	rdvB := c.addPeer("rdvB", 2, rendezvous.RoleRendezvous, "mem://rdvA")
	pub := c.addPeer("pub", 3, rendezvous.RoleEdge, "mem://rdvA")
	sub := c.addPeer("sub", 4, rendezvous.RoleEdge, "mem://rdvB")
	for _, p := range []*testPeer{rdvB, pub, sub} {
		if !p.rdv.AwaitConnected("net", 5*time.Second) {
			t.Fatalf("%s never connected", p.name)
		}
	}
	kept := subscribe(t, rdvA, "net") // rdvB has no reader
	remote := subscribe(t, sub, "net")

	m := message.New(pub.ep.PeerID())
	m.AddString("app", "body", "kept and forwarded")
	if err := pub.rdv.Propagate(m, "app.events", "net"); err != nil {
		t.Fatal(err)
	}
	far := remote.waitOne(t)
	pubID, a, b := pub.ep.PeerID(), rdvA.ep.PeerID(), rdvB.ep.PeerID()
	if want := []jid.ID{pubID, a, b}; !reflect.DeepEqual(far.Path, want) || far.TTL != message.DefaultTTL-3 {
		t.Fatalf("subscriber's copy: path %v ttl %d, want %v and %d", far.Path, far.TTL, want, message.DefaultTTL-3)
	}
	// The forward has long left rdvA by now.
	local := kept.waitOne(t)
	if want := []jid.ID{pubID}; !reflect.DeepEqual(local.Path, want) || local.TTL != message.DefaultTTL-1 {
		t.Fatalf("the delivered message was stamped under its reader: path %v ttl %d, want %v and %d", local.Path, local.TTL, want, message.DefaultTTL-1)
	}
	if local.Text("app", "body") != "kept and forwarded" || local.Text("rdv", "Op") != "prop" {
		t.Fatalf("the delivered message changed: %v", local.Elements())
	}
}

// TestForwardedFramesAreNotDrops: a pure rendezvous reads no group, and
// forwards every frame it is sent. A forwarded frame is not a drop: the
// endpoint's dropped counter, inbound messages with no registered
// handler, stays 0.
func TestForwardedFramesAreNotDrops(t *testing.T) {
	c := newCluster(t)
	r := c.addPeer("rdv", 1, rendezvous.RoleRendezvous)
	pub := c.addPeer("pub", 2, rendezvous.RoleEdge, "mem://rdv")
	sub := c.addPeer("sub", 3, rendezvous.RoleEdge, "mem://rdv")
	for _, p := range []*testPeer{pub, sub} {
		if !p.rdv.AwaitConnected("net", 5*time.Second) {
			t.Fatalf("%s never connected", p.name)
		}
	}
	s := subscribe(t, sub, "net")
	const n = 10
	for i := 0; i < n; i++ {
		m := message.New(pub.ep.PeerID())
		m.AddUint64("app", "n", uint64(i))
		if err := pub.rdv.Propagate(m, "app.events", "net"); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return s.count() == n })
	if got := r.ep.Snapshot().Counters; got["msgs_in"] < n || got["dropped"] != 0 {
		t.Fatalf("the rendezvous forwarded %d frames: msgs_in %d, dropped %d; want dropped 0", n, got["msgs_in"], got["dropped"])
	}
}

func TestPropagateAcrossRendezvousMesh(t *testing.T) {
	c := newCluster(t)
	c.addPeer("rdvA", 1, rendezvous.RoleRendezvous)
	c.addPeer("rdvB", 2, rendezvous.RoleRendezvous, "mem://rdvA")
	pub := c.addPeer("pub", 3, rendezvous.RoleEdge, "mem://rdvA")
	sub := c.addPeer("sub", 4, rendezvous.RoleEdge, "mem://rdvB")
	if !pub.rdv.AwaitConnected("net", 5*time.Second) || !sub.rdv.AwaitConnected("net", 5*time.Second) {
		t.Fatal("peers never connected")
	}
	s := subscribe(t, sub, "net")
	m := message.New(pub.ep.PeerID())
	m.AddString("app", "body", "cross-mesh")
	if err := pub.rdv.Propagate(m, "app.events", "net"); err != nil {
		t.Fatal(err)
	}
	if got := s.waitOne(t); got.Text("app", "body") != "cross-mesh" {
		t.Fatalf("got %q", got.Text("app", "body"))
	}
}

func TestDuplicateSuppressionInMesh(t *testing.T) {
	// Two rendezvous seeded with each other create a cycle; the seen
	// cache must deliver each message exactly once per subscriber.
	c := newCluster(t)
	c.addPeer("rdvA", 1, rendezvous.RoleRendezvous, "mem://rdvB")
	c.addPeer("rdvB", 2, rendezvous.RoleRendezvous, "mem://rdvA")
	pub := c.addPeer("pub", 3, rendezvous.RoleEdge, "mem://rdvA")
	subA := c.addPeer("subA", 4, rendezvous.RoleEdge, "mem://rdvA")
	subB := c.addPeer("subB", 5, rendezvous.RoleEdge, "mem://rdvB")
	for _, p := range []*testPeer{pub, subA, subB} {
		if !p.rdv.AwaitConnected("net", 5*time.Second) {
			t.Fatalf("%s never connected", p.name)
		}
	}
	// Give the two rendezvous time to lease with each other so the
	// cycle actually exists when we publish.
	time.Sleep(100 * time.Millisecond)
	sa := subscribe(t, subA, "net")
	sb := subscribe(t, subB, "net")
	const total = 20
	for i := 0; i < total; i++ {
		m := message.New(pub.ep.PeerID())
		m.AddBytes("app", "n", []byte{byte(i)})
		if err := pub.rdv.Propagate(m, "app.events", "net"); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return sa.count() >= total && sb.count() >= total })
	c.net.WaitQuiesce(5 * time.Second)
	if sa.count() != total {
		t.Fatalf("subA received %d, want exactly %d (duplicates leaked)", sa.count(), total)
	}
	if sb.count() != total {
		t.Fatalf("subB received %d, want exactly %d (duplicates leaked)", sb.count(), total)
	}
}

func TestPropagateWithNoPeers(t *testing.T) {
	c := newCluster(t)
	lonely := c.addPeer("lonely", 1, rendezvous.RoleEdge)
	m := message.New(lonely.ep.PeerID())
	err := lonely.rdv.Propagate(m, "app.events", "net")
	if !errors.Is(err, rendezvous.ErrNoPeers) {
		t.Fatalf("err = %v", err)
	}
}

// TestPropagateAllocBudget: Propagate takes the message it is given and
// stamps it — its path and TTL and the rdv:Op/DSvc/DParam elements —
// into the room a message New built has for them, so propagating one
// with nobody to send to allocates nothing: the sends are what a
// propagation costs. The message is stamped, once.
func TestPropagateAllocBudget(t *testing.T) {
	if israce.Enabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	c := newCluster(t)
	lonely := c.addPeer("lonely", 1, rendezvous.RoleEdge)
	const runs = 100
	msgs := make([]*message.Message, 0, runs+1) // AllocsPerRun runs the function once more first
	for range runs + 1 {
		m := message.New(lonely.ep.PeerID())
		m.AddID("tps", "EventID", jid.NewMessage())
		m.AddBytes("tps", "Data", append(m.PayloadRoom(), "blob"...))
		msgs = append(msgs, m)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if err := lonely.rdv.Propagate(msgs[next], "app.events", "net"); !errors.Is(err, rendezvous.ErrNoPeers) {
			t.Fatalf("err = %v", err)
		}
		next++
	})
	if allocs != 0 {
		t.Errorf("Propagate of a built message with no targets allocates %.1f/op, want 0 (2 with a Dup to stamp and a slice for the rdv envelope)", allocs)
	}
	m := msgs[0]
	if len(m.Path) != 1 || m.Path[0] != lonely.ep.PeerID() || m.TTL != message.DefaultTTL-1 ||
		m.Text("rdv", "Op") != "prop" || m.Text("rdv", "DSvc") != "app.events" || m.Text("rdv", "DParam") != "net" || m.Len() != 5 {
		t.Fatalf("propagated message: path %v, TTL %d, elements %v", m.Path, m.TTL, m.Elements())
	}
}

// handFedRendezvous is a rendezvous on a transport the test feeds by
// hand, with one client, "hand://sub", leased for group "g".
func handFedRendezvous(t *testing.T) (*rendezvous.Service, *endpoint.Service, *handFed) {
	t.Helper()
	in := &handFed{addr: "hand://rdv"}
	ep := endpoint.New(jid.FromSeed(jid.KindPeer, 1))
	if err := ep.AddTransport(in); err != nil {
		t.Fatal(err)
	}
	rdv, err := rendezvous.New(ep, rendezvous.Config{Role: rendezvous.RoleRendezvous, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		rdv.Close()
		_ = ep.Close()
	})
	in.recv(opFrame(t, jid.FromSeed(jid.KindPeer, 3), "hand://sub", "", "connect", func(m *message.Message) {
		m.AddUint64("rdv", "Seed", 1)
		m.AddBytes("rdv", "Groups", groupSet("g"))
		m.AddUint64("rdv", "Epoch", 0)
	}))
	return rdv, ep, in
}

// propFrame is the frame pub propagates into group "g" as the seq-th
// message of its stream, a 2 kB payload behind the rdv elements: all
// three of them, or rdv:Op and rdv:DParam alone.
func propFrame(t *testing.T, pub jid.ID, stream, seq uint64, dsvc bool) []byte {
	return opFrame(t, pub, "hand://pub", "g", "prop", func(m *message.Message) {
		m.ID = jid.NumberedMessage(stream, seq)
		m.Stamp(pub)
		if dsvc {
			m.AddString("rdv", "DSvc", "app")
		}
		m.AddString("rdv", "DParam", "g")
		m.AddBytes("tps", "Data", make([]byte, 1910))
	})
}

// TestForwardAllocBudget: a rendezvous that reads no group forwards the
// frames of the group from the bytes it received (message.Forward), into
// a pooled buffer, so a pure forwarding hop — a frame in off the
// transport, the hop filter, one target out — allocates nothing: it
// builds no message. The parent, which decoded each frame and encoded
// it again, allocated the decoded message's block per frame.
func TestForwardAllocBudget(t *testing.T) {
	if israce.Enabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	_, ep, in := handFedRendezvous(t)
	pub, stream := jid.FromSeed(jid.KindPeer, 2), jid.NewStream()
	const runs = 100
	frames := make([][]byte, runs+2) // one to start the stream, and AllocsPerRun runs once more first
	for i := range frames {
		frames[i] = propFrame(t, pub, stream, uint64(i+1), true)
	}
	sent := ep.Snapshot().Counters["msgs_out"]
	in.recv(frames[0])
	next := 1
	allocs := testing.AllocsPerRun(runs, func() {
		in.recv(frames[next])
		next++
	})
	if out := ep.Snapshot().Counters["msgs_out"] - sent; out != runs+2 {
		t.Fatalf("%d frames forwarded, want %d", out, runs+2)
	}
	if allocs != 0 {
		t.Errorf("forwarding a frame to one target allocates %.1f/op, want 0 (1 with the frame decoded into a message and encoded again)", allocs)
	}
}

// TestFrameWithoutDSvcIsDropped: a propagated frame that names no
// destination service (rdv:DSvc) passes the hop filter and goes no
// further — neither to the group's reader nor on to the group's other
// peers — on a rendezvous that reads its group as on one that only
// forwards; the next frame of the stream, which names one, goes both
// ways.
func TestFrameWithoutDSvcIsDropped(t *testing.T) {
	for _, reads := range []bool{false, true} {
		rdv, ep, in := handFedRendezvous(t)
		var delivered int
		if reads {
			if err := rdv.Read("g", rendezvous.DeliverFunc(func(*message.Message, endpoint.Address) { delivered++ })); err != nil {
				t.Fatal(err)
			}
		}
		pub, stream := jid.FromSeed(jid.KindPeer, 2), jid.NewStream()
		sent := ep.Snapshot().Counters["msgs_out"]
		in.recv(propFrame(t, pub, stream, 1, false))
		if out := ep.Snapshot().Counters["msgs_out"] - sent; out != 0 || delivered != 0 {
			t.Fatalf("reader %v: a frame without rdv:DSvc was forwarded %d times and delivered %d", reads, out, delivered)
		}
		in.recv(propFrame(t, pub, stream, 2, true))
		want := map[bool]int{false: 0, true: 1}[reads]
		if out := ep.Snapshot().Counters["msgs_out"] - sent; out != 1 || delivered != want {
			t.Fatalf("reader %v: the next frame was forwarded %d times and delivered %d, want 1 and %d", reads, out, delivered, want)
		}
	}
}

func TestLeaseExpiryDropsClient(t *testing.T) {
	c := newCluster(t)
	r := c.addPeer("rdv", 1, rendezvous.RoleRendezvous)
	e := c.addPeer("edge", 2, rendezvous.RoleEdge, "mem://rdv")
	if !e.rdv.AwaitConnected("net", 5*time.Second) {
		t.Fatal("edge never connected")
	}
	waitFor(t, func() bool { return clients(r.rdv) == 1 })
	// Stop the edge's renewals by closing it; the rendezvous must drop
	// the client after the lease TTL (2s in this cluster).
	e.rdv.Close()
	waitFor(t, func() bool { return clients(r.rdv) == 0 })
}

func TestRendezvousRestartHeals(t *testing.T) {
	c := newCluster(t)
	r := c.addPeer("rdv", 1, rendezvous.RoleRendezvous)
	e := c.addPeer("edge", 2, rendezvous.RoleEdge, "mem://rdv")
	if !e.rdv.AwaitConnected("net", 5*time.Second) {
		t.Fatal("initial connect failed")
	}
	// Kill the rendezvous node entirely.
	r.rdv.Close()
	_ = r.ep.Close()
	// Start a replacement with the same address but a new identity.
	r2 := c.addPeer("rdv", 9, rendezvous.RoleRendezvous)
	// The edge's lease loop keeps retrying the seed; eventually it holds
	// a lease with the new rendezvous.
	waitFor(t, func() bool {
		for _, id := range e.rdv.ConnectedRendezvous("net") {
			if id == r2.ep.PeerID() {
				return true
			}
		}
		return false
	})
}

// TestRestartUnderTheSameIDIsANewLease: a rendezvous that comes back on
// its address under the ID it had grants a lease the edge still holds
// its own side of. The grant says that the rendezvous did not, so the
// edge's listeners hear a new connection epoch and not a renewal.
func TestRestartUnderTheSameIDIsANewLease(t *testing.T) {
	c := newCluster(t)
	r := c.addPeer("rdv", 1, rendezvous.RoleRendezvous)
	e := c.addPeer("edge", 2, rendezvous.RoleEdge, "mem://rdv")
	if !e.rdv.AwaitConnected("net", 5*time.Second) {
		t.Fatal("initial connect failed")
	}
	var heard atomic.Int64
	e.rdv.AddLeaseListener(func(jid.ID, string) { heard.Add(1) })
	r.rdv.Close()
	_ = r.ep.Close()
	c.addPeer("rdv", 1, rendezvous.RoleRendezvous)
	waitFor(t, func() bool { return heard.Load() == 1 })
	if got := e.rdv.ConnectedRendezvous("net"); len(got) != 1 || got[0] != r.ep.PeerID() {
		t.Fatalf("connected rdvs = %v, want the one ID", got)
	}
}

// clients counts the live leases of clients svc holds.
func clients(svc *rendezvous.Service) (n int) {
	for _, pe := range svc.PeersView() {
		if pe.Kind == obs.PeerClient {
			n++
		}
	}
	return n
}

// leases lists the groups p's lease of kind with other carries, as p's
// peer table shows them.
func leases(p *testPeer, kind string, other *testPeer) map[string]bool {
	out := make(map[string]bool)
	for _, pe := range p.rdv.PeersView() {
		if pe.Kind == kind && pe.ID == other.ep.PeerID().String() {
			for _, g := range pe.Groups {
				out[g] = true
			}
		}
	}
	return out
}

// TestLeaveEndsTheGroupsLeaseAtOnce: an edge in groups X and Y leaves X.
// The rendezvous hears it and drops X from the edge's lease long before
// the lease would have run out, and keeps Y. A grant for X that arrives
// after the edge left covers nothing and tells no listener, while one
// for Y still does.
func TestLeaveEndsTheGroupsLeaseAtOnce(t *testing.T) {
	c := newCluster(t)
	r := c.addPeer("rdv", 1, rendezvous.RoleRendezvous)
	e := c.addPeer("edge", 2, rendezvous.RoleEdge, "mem://rdv")
	e.rdv.Join("X")
	e.rdv.Join("Y")
	waitFor(t, func() bool { l := leases(r, obs.PeerClient, e); return l["X"] && l["Y"] })
	var heard sync.Map
	e.rdv.AddLeaseListener(func(id jid.ID, group string) { heard.Store(group, id) })

	start := time.Now()
	e.rdv.Leave("X")
	waitFor(t, func() bool { return !leases(r, obs.PeerClient, e)["X"] })
	if took := time.Since(start); took > time.Second {
		t.Fatalf("the rendezvous dropped the lease after %v, as if it had expired", took)
	}
	if l := leases(r, obs.PeerClient, e); !l["Y"] || !l["net"] {
		t.Fatalf("the rendezvous dropped the edge's other leases too: %v", l)
	}
	if l := leases(e, obs.PeerRendezvous, r); l["X"] || !l["Y"] {
		t.Fatalf("the edge's own table after leaving X: %v", l)
	}

	grant := func(group string) {
		m := message.New(r.ep.PeerID())
		m.AddString("rdv", "Op", "lease")
		m.AddUint64("rdv", "Seed", 1)
		m.AddBytes("rdv", "Groups", groupSet(group))
		m.AddUint64("rdv", "Lease", uint64(time.Minute/time.Millisecond))
		m.AddUint64("rdv", "Epoch", 1)
		if err := r.ep.Send("mem://edge", rendezvous.ServiceName, "", m); err != nil {
			t.Fatal(err)
		}
		c.net.WaitQuiesce(5 * time.Second)
	}
	grant("X")
	if got := e.rdv.ConnectedRendezvous("X"); len(got) != 0 {
		t.Fatalf("a grant for the group the edge left leased it with %v", got)
	}
	if _, ok := heard.Load("X"); ok {
		t.Fatal("a grant for the group the edge left reached a listener")
	}
	grant("Y")
	if id, ok := heard.Load("Y"); !ok || id != r.ep.PeerID() {
		t.Fatal("a new grant for a joined group reached no listener")
	}
}

// TestJoinLeasesWithoutWaitingForRenewal: with 30 s leases an edge renews
// every 10 s, and a group it joins is leased at once, not at the next
// renewal.
func TestJoinLeasesWithoutWaitingForRenewal(t *testing.T) {
	c := newCluster(t)
	c.addService("rdv", 1, rendezvous.Config{Role: rendezvous.RoleRendezvous, LeaseTTL: 30 * time.Second})
	e := c.addService("edge", 2, rendezvous.Config{Role: rendezvous.RoleEdge, Seeds: []endpoint.Address{"mem://rdv"}, LeaseTTL: 30 * time.Second})
	if !e.rdv.AwaitConnected("net", 5*time.Second) {
		t.Fatal("edge never connected")
	}
	start := time.Now()
	e.rdv.Join("X")
	if !e.rdv.AwaitConnected("X", time.Second) {
		t.Fatalf("no grant for the joined group after %v", time.Since(start))
	}
}

func TestInvalidRole(t *testing.T) {
	c := newCluster(t)
	node, err := c.net.AddNode("x")
	if err != nil {
		t.Fatal(err)
	}
	ep := endpoint.New(jid.FromSeed(jid.KindPeer, 1))
	if err := ep.AddTransport(memnet.New(node)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ep.Close() })
	if _, err := rendezvous.New(ep, rendezvous.Config{}); err == nil {
		t.Fatal("zero role accepted")
	}
}

func TestTTLBoundsPropagationDepth(t *testing.T) {
	// Chain of rendezvous longer than the TTL: the far end must not
	// receive a message whose hop budget ran out.
	c := newCluster(t)
	chain := []string{"r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7", "r8"}
	for i, name := range chain {
		var seeds []endpoint.Address
		if i > 0 {
			seeds = append(seeds, endpoint.MakeAddress("mem", chain[i-1]))
		}
		c.addPeer(name, uint64(10+i), rendezvous.RoleRendezvous, seeds...)
	}
	pub := c.addPeer("pub", 30, rendezvous.RoleEdge, "mem://r0")
	far := c.addPeer("far", 31, rendezvous.RoleEdge, "mem://r8")
	if !pub.rdv.AwaitConnected("net", 5*time.Second) || !far.rdv.AwaitConnected("net", 5*time.Second) {
		t.Fatal("never connected")
	}
	// Let the rendezvous chain link up (each must lease with its
	// predecessor).
	time.Sleep(300 * time.Millisecond)
	s := subscribe(t, far, "net")

	m := message.New(pub.ep.PeerID())
	m.TTL = 3 // pub -> r0 -> r1 -> r2, then exhausted
	m.AddString("app", "body", "short-ttl")
	if err := pub.rdv.Propagate(m, "app.events", "net"); err != nil {
		t.Fatal(err)
	}
	c.net.WaitQuiesce(5 * time.Second)
	if s.count() != 0 {
		t.Fatal("message crossed more hops than its TTL allowed")
	}

	m2 := message.New(pub.ep.PeerID())
	m2.TTL = 32
	m2.AddString("app", "body", "long-ttl")
	if err := pub.rdv.Propagate(m2, "app.events", "net"); err != nil {
		t.Fatal(err)
	}
	if got := s.waitOne(t); got.Text("app", "body") != "long-ttl" {
		t.Fatalf("got %q", got.Text("app", "body"))
	}
}

func TestAwaitConnectedFailsFastWhenAllSeedsUnreachable(t *testing.T) {
	// Seeds that point at nodes which do not exist fail at the transport
	// on every connect attempt; AwaitConnected must give up once the
	// evidence is conclusive instead of spinning out the full timeout.
	c := newCluster(t)
	e := c.addPeer("edge", 1, rendezvous.RoleEdge, "mem://ghost1", "mem://ghost2")
	start := time.Now()
	if e.rdv.AwaitConnected("net", 30*time.Second) {
		t.Fatal("connected to nonexistent seeds")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("AwaitConnected spun for %v instead of failing fast", elapsed)
	}
	if c := e.rdv.Snapshot().Counters; c["seed_failures"] < 2 {
		t.Fatalf("stats = %+v, want seed_failures >= 2", c)
	}
}

func TestLeaseExpiryUnderClockSkew(t *testing.T) {
	// The rendezvous's clock jumps forward past the lease TTL (NTP step,
	// VM resume): the client's lease expires from the rendezvous's point
	// of view even though the client believes it is current. The
	// client's steady renewals must then re-establish it.
	c := newCluster(t)
	var skew atomic.Int64 // extra time applied to the rendezvous clock, in ns
	node, err := c.net.AddNode("rdv")
	if err != nil {
		t.Fatal(err)
	}
	ep := endpoint.New(jid.FromSeed(jid.KindPeer, 1))
	if err := ep.AddTransport(memnet.New(node)); err != nil {
		t.Fatal(err)
	}
	const ttl = 2 * time.Second
	rdv, err := rendezvous.New(ep, rendezvous.Config{
		Role:     rendezvous.RoleRendezvous,
		LeaseTTL: ttl,
		Clock:    func() time.Time { return time.Now().Add(time.Duration(skew.Load())) },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rdv.Close(); _ = ep.Close() })

	e := c.addPeer("edge", 2, rendezvous.RoleEdge, "mem://rdv")
	if !e.rdv.AwaitConnected("net", 5*time.Second) {
		t.Fatal("edge never connected")
	}
	waitFor(t, func() bool { return clients(rdv) == 1 })

	skew.Store(int64(2 * ttl))
	if got := clients(rdv); got != 0 {
		t.Fatalf("client survived a %v clock jump past its lease", 2*ttl)
	}
	// The edge renews at ttl/3; the renewal grants a fresh lease stamped
	// with the skewed clock, so the client reappears.
	waitFor(t, func() bool { return clients(rdv) == 1 })
}

func TestSuspectProbeRecovery(t *testing.T) {
	// A one-way link failure makes rendezvous→edge sends fail while the
	// edge's renewals still arrive. The edge must be marked suspect and
	// probed — and once the link heals, the pong clears the suspicion
	// without an eviction.
	c := newCluster(t)
	node, err := c.net.AddNode("rdv")
	if err != nil {
		t.Fatal(err)
	}
	ep := endpoint.New(jid.FromSeed(jid.KindPeer, 1))
	if err := ep.AddTransport(memnet.New(node)); err != nil {
		t.Fatal(err)
	}
	rdv, err := rendezvous.New(ep, rendezvous.Config{
		Role:         rendezvous.RoleRendezvous,
		LeaseTTL:     time.Second,
		SuspectAfter: 2,
		EvictAfter:   50, // keep eviction out of this test
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rdv.Close(); _ = ep.Close() })

	pub := c.addPeer("pub", 2, rendezvous.RoleEdge, "mem://rdv")
	sub := c.addPeer("sub", 3, rendezvous.RoleEdge, "mem://rdv")
	if !pub.rdv.AwaitConnected("net", 5*time.Second) || !sub.rdv.AwaitConnected("net", 5*time.Second) {
		t.Fatal("peers never connected")
	}
	sink := subscribe(t, sub, "net")

	// Break only rdv → sub; renewals (sub → rdv) keep the lease alive.
	c.net.SetLink("rdv", "sub", netsim.Link{Latency: time.Millisecond, Down: true})
	for i := 0; i < 3; i++ {
		m := message.New(pub.ep.PeerID())
		m.AddBytes("app", "n", []byte{byte(i)})
		if err := pub.rdv.Propagate(m, "app.events", "net"); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	waitFor(t, func() bool { return rdv.Snapshot().Counters["suspected"] >= 1 })
	if c := rdv.Snapshot().Counters; c["send_failures"] == 0 || c["probes"] == 0 {
		t.Fatalf("stats = %+v, want send failures and a probe", c)
	}

	c.net.SetLink("rdv", "sub", netsim.Link{Latency: time.Millisecond})
	// The maintenance loop re-probes the surviving suspect; the pong
	// clears it and propagation flows again.
	m := message.New(pub.ep.PeerID())
	m.AddString("app", "body", "after-heal")
	waitFor(t, func() bool {
		_ = pub.rdv.Propagate(m.Dup(), "app.events", "net")
		return sink.count() > 0
	})
	if c := rdv.Snapshot().Counters; c["evicted"] != 0 {
		t.Fatalf("stats = %+v, want no evictions", c)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestLeaseListenerHearsGrantsNotRenewals: a lease listener is told of
// a rendezvous entering the lease table — a first grant, or the grant
// after a lease lapsed — and of nothing while renewals keep a lease
// alive.
func TestLeaseListenerHearsGrantsNotRenewals(t *testing.T) {
	c := newCluster(t)
	r := c.addPeer("rdv", 1, rendezvous.RoleRendezvous) // grants 2 s leases
	var skew atomic.Int64                               // added to the edge's clock, in ns
	node, err := c.net.AddNode("edge")
	if err != nil {
		t.Fatal(err)
	}
	ep := endpoint.New(jid.FromSeed(jid.KindPeer, 2))
	if err := ep.AddTransport(memnet.New(node)); err != nil {
		t.Fatal(err)
	}
	const renew = 50 * time.Millisecond
	edge, err := rendezvous.New(ep, rendezvous.Config{
		Role:     rendezvous.RoleEdge,
		Seeds:    []endpoint.Address{"mem://rdv"},
		LeaseTTL: 3 * renew,
		Clock:    func() time.Time { return time.Now().Add(time.Duration(skew.Load())) },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { edge.Close(); _ = ep.Close() })
	edge.Join("net")
	if !edge.AwaitConnected("net", 5*time.Second) {
		t.Fatal("edge never connected")
	}

	var heard atomic.Int64
	token := edge.AddLeaseListener(func(id jid.ID, group string) {
		if id != r.ep.PeerID() || group != "net" {
			t.Errorf("listener told of %v in %q, want %v in net", id, group, r.ep.PeerID())
		}
		heard.Add(1)
	})
	grants := func() int64 { return ep.Snapshot().Counters["msgs_in"] } // the edge receives nothing else
	base := grants()
	waitFor(t, func() bool { return grants() >= base+3 })
	if n := heard.Load(); n != 0 {
		t.Fatalf("listener heard %d of %d renewals", n, grants()-base)
	}

	// The edge's clock steps past the granted TTL: the lease has lapsed
	// by the time the next grant arrives, so that grant is a new lease.
	skew.Add(int64(3 * time.Second))
	waitFor(t, func() bool { return heard.Load() == 1 })
	base = grants()
	waitFor(t, func() bool { return grants() >= base+3 })
	if n := heard.Load(); n != 1 {
		t.Fatalf("listener heard %d grants for one new lease", n)
	}

	edge.RemoveLeaseListener(token)
	skew.Add(int64(3 * time.Second))
	base = grants()
	waitFor(t, func() bool { return grants() >= base+2 })
	if n := heard.Load(); n != 1 {
		t.Fatalf("removed listener still heard a grant (%d)", n)
	}
}

// dropFirst loses the first frame its transport is asked to send.
type dropFirst struct {
	endpoint.Transport
	sent atomic.Bool
}

func (d *dropFirst) Send(to endpoint.Address, frame []byte) error {
	if !d.sent.Swap(true) {
		return nil
	}
	return d.Transport.Send(to, frame)
}

// TestLostNewGrantStillStartsAnEpoch: a rendezvous comes back under its
// ID and the first frame it sends — the grant that starts its lease
// with the edge — is lost. The edge still holds its side of the old
// lease, so the next grant renews it on both sides; it names the new
// epoch, and the edge's listeners hear that epoch once.
func TestLostNewGrantStillStartsAnEpoch(t *testing.T) {
	c := newCluster(t)
	// 10 s grants, renewed every 100 ms: the edge's side of the old lease
	// outlives the test.
	r := c.addService("rdv", 1, rendezvous.Config{Role: rendezvous.RoleRendezvous, LeaseTTL: 10 * time.Second})
	e := c.addService("edge", 2, rendezvous.Config{Role: rendezvous.RoleEdge, Seeds: []endpoint.Address{"mem://rdv"}, LeaseTTL: 300 * time.Millisecond})
	if !e.rdv.AwaitConnected("net", 5*time.Second) {
		t.Fatal("edge never connected")
	}
	var heard atomic.Int64
	e.rdv.AddLeaseListener(func(jid.ID, string) { heard.Add(1) })
	r.rdv.Close()
	_ = r.ep.Close()
	var lossy *dropFirst
	c.wrap = func(tr endpoint.Transport) endpoint.Transport {
		lossy = &dropFirst{Transport: tr}
		return lossy
	}
	restarted := c.addService("rdv", 1, rendezvous.Config{Role: rendezvous.RoleRendezvous, LeaseTTL: 10 * time.Second})
	grants := func() int64 { return restarted.ep.Snapshot().Counters["msgs_out"] }
	waitFor(t, func() bool { return grants() >= 4 })
	if !lossy.sent.Load() {
		t.Fatal("the restarted rendezvous sent nothing")
	}
	if n := heard.Load(); n != 1 {
		t.Fatalf("the edge's listeners heard %d lease epochs after the restart, want 1", n)
	}
}

// aliased sends what is addressed to one of names to the address it
// stands for, as a resolver does for a host name.
type aliased struct {
	endpoint.Transport
	names map[endpoint.Address]endpoint.Address
}

func (a *aliased) Send(to endpoint.Address, frame []byte) error {
	if addr, ok := a.names[to]; ok {
		to = addr
	}
	return a.Transport.Send(to, frame)
}

// TestFailoverWithSeedsUnderOtherNames: an ActiveStandby edge knows its
// seeds by names other than the addresses the rendezvous report. It
// leases with the elected seed all the same, and when that one dies it
// fails over to the next and drops the dead one's leases at once.
func TestFailoverWithSeedsUnderOtherNames(t *testing.T) {
	c := newCluster(t)
	// 10 s grants: the lease with the dead seed outlives the failover
	// unless the election drops it.
	r0 := c.addService("r0", 1, rendezvous.Config{Role: rendezvous.RoleRendezvous, LeaseTTL: 10 * time.Second})
	r1 := c.addService("r1", 2, rendezvous.Config{Role: rendezvous.RoleRendezvous, LeaseTTL: 10 * time.Second})
	c.wrap = func(tr endpoint.Transport) endpoint.Transport {
		return &aliased{Transport: tr, names: map[endpoint.Address]endpoint.Address{"mem://first": "mem://r0", "mem://second": "mem://r1"}}
	}
	e := c.addService("edge", 3, rendezvous.Config{Role: rendezvous.RoleEdge, Seeds: []endpoint.Address{"mem://first", "mem://second"},
		ActiveStandby: true, LeaseTTL: 300 * time.Millisecond})
	// leased is the Leased flag of the edge's entry for the seed it
	// knows by name.
	leased := func() (seeds [2]bool) {
		for _, pe := range e.rdv.PeersView() {
			if i := slices.Index([]string{"mem://first", "mem://second"}, pe.Addr); pe.Kind == obs.PeerSeed && i >= 0 {
				seeds[i] = pe.Leased
			}
		}
		return seeds
	}
	if !e.rdv.AwaitConnected("net", 5*time.Second) {
		t.Fatal("the edge never leased with its first seed")
	}
	if got := e.rdv.ConnectedRendezvous("net"); !reflect.DeepEqual(got, []jid.ID{r0.ep.PeerID()}) {
		t.Fatalf("the edge leases with %v, want r0 alone", got)
	}
	if got := leased(); got != [2]bool{true, false} {
		t.Fatalf("the seed entries read Leased %v, want the first alone", got)
	}
	r0.rdv.Close()
	_ = r0.ep.Close()
	waitFor(t, func() bool { return slices.Contains(e.rdv.ConnectedRendezvous("net"), r1.ep.PeerID()) })
	if got := e.rdv.ConnectedRendezvous("net"); !reflect.DeepEqual(got, []jid.ID{r1.ep.PeerID()}) {
		t.Fatalf("after the failover the edge leases with %v, want r1 alone", got)
	}
	if got := leased(); got != [2]bool{false, true} {
		t.Fatalf("after the failover the seed entries read Leased %v, want the second alone", got)
	}
}

// TestOneConnectPerSeedPerRenewal: an edge in 50 groups renews its
// lease with one connect, which the rendezvous answers with one grant,
// and each side holds one lease entry, carrying the 50 groups.
func TestOneConnectPerSeedPerRenewal(t *testing.T) {
	c := newCluster(t)
	// 3 s leases: a renewal every second.
	r := c.addService("rdv", 1, rendezvous.Config{Role: rendezvous.RoleRendezvous, LeaseTTL: 3 * time.Second})
	e := c.addService("edge", 2, rendezvous.Config{Role: rendezvous.RoleEdge, Seeds: []endpoint.Address{"mem://rdv"}, LeaseTTL: 3 * time.Second})
	for g := 1; g < 50; g++ {
		e.rdv.Join(fmt.Sprint("g", g))
	}
	if !e.rdv.AwaitConnected("g49", 5*time.Second) {
		t.Fatal("the edge never leased its last group")
	}
	c.net.WaitQuiesce(5 * time.Second)
	for _, p := range []*testPeer{e, r} {
		var entries []obs.PeerEntry
		for _, pe := range p.rdv.PeersView() {
			if pe.Kind != obs.PeerSeed {
				entries = append(entries, pe)
			}
		}
		if len(entries) != 1 || len(entries[0].Groups) != 50 {
			t.Fatalf("%s's lease entries: %+v, want one with 50 groups", p.name, entries)
		}
	}
	sent := func(p *testPeer) int64 { return p.ep.Snapshot().Counters["msgs_out"] }
	connects, grants := sent(e), sent(r)
	waitFor(t, func() bool { return sent(e) > connects })
	c.net.WaitQuiesce(5 * time.Second)
	if n, m := sent(e)-connects, sent(r)-grants; n != 1 || m != 1 {
		t.Fatalf("a renewal was %d connects and %d grants, want 1 and 1", n, m)
	}
}
