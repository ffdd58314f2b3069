package discovery_test

import (
	"sync"
	"testing"
	"time"

	"github.com/tps-p2p/tps/internal/jxta/adv"
	"github.com/tps-p2p/tps/internal/jxta/discovery"
	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/rendezvous"
	"github.com/tps-p2p/tps/internal/jxta/resolver"
	"github.com/tps-p2p/tps/internal/jxta/transport/memnet"
	"github.com/tps-p2p/tps/internal/netsim"
)

type testPeer struct {
	name string
	ep   *endpoint.Service
	rdv  *rendezvous.Service
	res  *resolver.Service
	disc *discovery.Service
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
	res, err := resolver.New(ep, rdv, "net")
	if err != nil {
		c.t.Fatal(err)
	}
	disc, err := discovery.New(res)
	if err != nil {
		c.t.Fatal(err)
	}
	p := &testPeer{name: name, ep: ep, rdv: rdv, res: res, disc: disc}
	c.t.Cleanup(func() {
		p.disc.Close()
		p.res.Close()
		p.rdv.Close()
		_ = p.ep.Close()
	})
	return p
}

func pipeAdv(seed uint64, name string) *adv.PipeAdv {
	return &adv.PipeAdv{PipeID: jid.FromSeed(jid.KindPipe, seed), Type: adv.PipePropagate, Name: name}
}

func groupAdv(seed uint64, name string) *adv.PeerGroupAdv {
	return &adv.PeerGroupAdv{GroupID: jid.FromSeed(jid.KindGroup, seed), Name: name}
}

func TestLocalPublishAndQuery(t *testing.T) {
	c := newCluster(t)
	p := c.addPeer("p", 1, rendezvous.RoleEdge)
	if err := p.disc.Publish(pipeAdv(1, "PS.SkiRental"), 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.disc.Publish(groupAdv(2, "PS.SkiRental"), 0, 0); err != nil {
		t.Fatal(err)
	}

	got := p.disc.GetLocalAdvertisements(adv.Adv, "Name", "PS.SkiRental")
	if len(got) != 1 {
		t.Fatalf("ADV index returned %d records", len(got))
	}
	got = p.disc.GetLocalAdvertisements(adv.Group, "Name", "PS.*")
	if len(got) != 1 {
		t.Fatalf("GROUP index returned %d records", len(got))
	}
	if got := p.disc.GetLocalAdvertisements(adv.Peer, "", ""); len(got) != 0 {
		t.Fatalf("PEER index should be empty, got %d", len(got))
	}
	if got := p.disc.GetLocalAdvertisements(adv.Adv, "Name", "Other*"); len(got) != 0 {
		t.Fatalf("wildcard mismatch returned %d", len(got))
	}
}

func TestFreshestRecordWinsPerID(t *testing.T) {
	clk := time.Unix(1000, 0)
	var mu sync.Mutex
	now := func() time.Time { mu.Lock(); defer mu.Unlock(); return clk }
	advance := func(d time.Duration) { mu.Lock(); clk = clk.Add(d); mu.Unlock() }

	c := newCluster(t)
	node, err := c.net.AddNode("solo")
	if err != nil {
		t.Fatal(err)
	}
	ep := endpoint.New(jid.FromSeed(jid.KindPeer, 1))
	if err := ep.AddTransport(memnet.New(node)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ep.Close() })
	res, err := resolver.New(ep, nil, "net")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(res.Close)
	disc, err := discovery.New(res, discovery.WithClock(now))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(disc.Close)

	a := pipeAdv(1, "v1")
	if err := disc.Publish(a, time.Hour, time.Hour); err != nil {
		t.Fatal(err)
	}
	advance(time.Minute)
	b := pipeAdv(1, "v2") // same pipe ID, fresher
	if err := disc.Publish(b, time.Hour, time.Hour); err != nil {
		t.Fatal(err)
	}
	got := disc.GetLocalAdvertisements(adv.Adv, "", "")
	if len(got) != 1 || got[0].Adv.AdvName() != "v2" {
		t.Fatalf("got %d records, name %q", len(got), got[0].Adv.AdvName())
	}
	// Re-publishing the stale record must not clobber the fresh one...
	// (same Published time as v1: strictly older than v2)
	got = disc.GetLocalAdvertisements(adv.Adv, "", "")
	if got[0].Adv.AdvName() != "v2" {
		t.Fatal("stale record replaced fresh one")
	}
	// ...and expiry drops it eventually.
	advance(2 * time.Hour)
	if got := disc.GetLocalAdvertisements(adv.Adv, "", ""); len(got) != 0 {
		t.Fatalf("expired record still present: %d", len(got))
	}
}

func TestRemoteQueryFindsPublisher(t *testing.T) {
	c := newCluster(t)
	c.addPeer("rdv", 1, rendezvous.RoleRendezvous)
	pub := c.addPeer("pub", 2, rendezvous.RoleEdge, "mem://rdv")
	sub := c.addPeer("sub", 3, rendezvous.RoleEdge, "mem://rdv")
	for _, p := range []*testPeer{pub, sub} {
		if !p.rdv.AwaitConnected(5 * time.Second) {
			t.Fatal("not connected")
		}
	}
	if err := pub.disc.Publish(groupAdv(7, "PS.SkiRental"), 0, 0); err != nil {
		t.Fatal(err)
	}

	type hit struct {
		a    adv.Advertisement
		from jid.ID
	}
	hits := make(chan hit, 16)
	sub.disc.AddListener(func(a adv.Advertisement, from jid.ID) {
		hits <- hit{a, from}
	})
	if err := sub.disc.GetRemoteAdvertisements(adv.Group, "Name", "PS.*", 10); err != nil {
		t.Fatal(err)
	}
	select {
	case h := <-hits:
		if h.a.AdvName() != "PS.SkiRental" {
			t.Fatalf("found %q", h.a.AdvName())
		}
		if h.from != pub.ep.PeerID() {
			t.Fatalf("responder %v, want %v", h.from, pub.ep.PeerID())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("discovery response never arrived")
	}
	// The response also landed in the local cache.
	got := sub.disc.GetLocalAdvertisements(adv.Group, "Name", "PS.SkiRental")
	if len(got) != 1 {
		t.Fatalf("local cache has %d records", len(got))
	}
	if st := sub.disc.Stats(); st.QueriesSent != 1 || st.RecordsReceived != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st := pub.disc.Stats(); st.QueriesServed == 0 || st.ResponsesSent == 0 {
		t.Fatalf("publisher stats %+v", st)
	}
}

func TestRemotePublishPushesUnsolicited(t *testing.T) {
	c := newCluster(t)
	c.addPeer("rdv", 1, rendezvous.RoleRendezvous)
	pub := c.addPeer("pub", 2, rendezvous.RoleEdge, "mem://rdv")
	sub := c.addPeer("sub", 3, rendezvous.RoleEdge, "mem://rdv")
	for _, p := range []*testPeer{pub, sub} {
		if !p.rdv.AwaitConnected(5 * time.Second) {
			t.Fatal("not connected")
		}
	}
	heard := make(chan adv.Advertisement, 1)
	sub.disc.AddListener(func(a adv.Advertisement, _ jid.ID) { heard <- a })
	if err := pub.disc.RemotePublish(pipeAdv(9, "PS.Chat"), time.Hour); err != nil {
		t.Fatal(err)
	}
	select {
	case a := <-heard:
		if a.AdvName() != "PS.Chat" {
			t.Fatalf("heard %q", a.AdvName())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("remote publish never arrived")
	}
}

func TestThresholdLimitsResponse(t *testing.T) {
	c := newCluster(t)
	c.addPeer("rdv", 1, rendezvous.RoleRendezvous)
	pub := c.addPeer("pub", 2, rendezvous.RoleEdge, "mem://rdv")
	sub := c.addPeer("sub", 3, rendezvous.RoleEdge, "mem://rdv")
	for _, p := range []*testPeer{pub, sub} {
		if !p.rdv.AwaitConnected(5 * time.Second) {
			t.Fatal("not connected")
		}
	}
	for i := 0; i < 10; i++ {
		if err := pub.disc.Publish(pipeAdv(uint64(100+i), "bulk"), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	var got int
	sub.disc.AddListener(func(adv.Advertisement, jid.ID) {
		mu.Lock()
		got++
		mu.Unlock()
	})
	if err := sub.disc.GetRemoteAdvertisements(adv.Adv, "Name", "bulk", 3); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	c.net.WaitQuiesce(5 * time.Second)
	mu.Lock()
	defer mu.Unlock()
	if got != 3 {
		t.Fatalf("received %d records, want threshold 3", got)
	}
}

func TestFlush(t *testing.T) {
	c := newCluster(t)
	p := c.addPeer("p", 1, rendezvous.RoleEdge)
	if err := p.disc.Publish(pipeAdv(1, "a"), 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.disc.Publish(pipeAdv(2, "b"), 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.disc.Publish(groupAdv(3, "g"), 0, 0); err != nil {
		t.Fatal(err)
	}
	p.disc.FlushID(adv.Adv, jid.FromSeed(jid.KindPipe, 1))
	if got := p.disc.GetLocalAdvertisements(adv.Adv, "", ""); len(got) != 1 {
		t.Fatalf("after FlushID: %d", len(got))
	}
	p.disc.Flush(adv.Adv)
	if got := p.disc.GetLocalAdvertisements(adv.Adv, "", ""); len(got) != 0 {
		t.Fatalf("after Flush: %d", len(got))
	}
	// GROUP index untouched.
	if got := p.disc.GetLocalAdvertisements(adv.Group, "", ""); len(got) != 1 {
		t.Fatalf("group index: %d", len(got))
	}
}

func TestDirectedRemoteQuery(t *testing.T) {
	c := newCluster(t)
	a := c.addPeer("a", 1, rendezvous.RoleEdge)
	b := c.addPeer("b", 2, rendezvous.RoleEdge)
	if err := b.disc.Publish(pipeAdv(5, "direct"), 0, 0); err != nil {
		t.Fatal(err)
	}
	heard := make(chan adv.Advertisement, 1)
	a.disc.AddListener(func(x adv.Advertisement, _ jid.ID) { heard <- x })
	if err := a.disc.GetRemoteAdvertisementsFrom("mem://b", adv.Adv, "Name", "direct", 0); err != nil {
		t.Fatal(err)
	}
	select {
	case x := <-heard:
		if x.AdvName() != "direct" {
			t.Fatalf("got %q", x.AdvName())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no response to directed query")
	}
}

// TestRepeatedDocumentIsNotDecodedAgain: a response that repeats the
// document a cached record came from hands listeners the advertisement
// already cached (no second decode) and renews the record; a changed
// document for the same ID, or the same document after a flush, is
// decoded afresh.
func TestRepeatedDocumentIsNotDecodedAgain(t *testing.T) {
	c := newCluster(t)
	a := c.addPeer("a", 1, rendezvous.RoleEdge)
	b := c.addPeer("b", 2, rendezvous.RoleEdge)
	if err := b.disc.Publish(pipeAdv(5, "direct"), 0, 0); err != nil {
		t.Fatal(err)
	}
	heard := make(chan adv.Advertisement, 1)
	a.disc.AddListener(func(x adv.Advertisement, _ jid.ID) { heard <- x })
	ask := func() adv.Advertisement {
		t.Helper()
		if err := a.disc.GetRemoteAdvertisementsFrom("mem://b", adv.Adv, "Name", "direct", 0); err != nil {
			t.Fatal(err)
		}
		select {
		case x := <-heard:
			return x
		case <-time.After(5 * time.Second):
			t.Fatal("no response to directed query")
			return nil
		}
	}
	cached := func() adv.Record {
		t.Helper()
		recs := a.disc.GetLocalAdvertisements(adv.Adv, "Name", "direct")
		if len(recs) != 1 {
			t.Fatalf("%d records cached, want 1", len(recs))
		}
		return recs[0]
	}

	first := ask()
	before := cached()
	time.Sleep(5 * time.Millisecond)
	if again := ask(); again != first {
		t.Fatal("an unchanged document was decoded a second time")
	}
	if after := cached(); after.Adv != first || !after.Published.After(before.Published) {
		t.Fatalf("record not renewed: published %v, then %v", before.Published, after.Published)
	}
	if st := a.disc.Stats(); st.RecordsReceived != 2 {
		t.Fatalf("RecordsReceived = %d, want 2: a repeat is still a record received", st.RecordsReceived)
	}

	changed := pipeAdv(5, "direct")
	changed.Type = adv.PipeUnicast
	if err := b.disc.Publish(changed, 0, 0); err != nil {
		t.Fatal(err)
	}
	third := ask()
	if third == first || third.(*adv.PipeAdv).Type != adv.PipeUnicast {
		t.Fatalf("changed document not decoded: %+v", third)
	}
	if cached().Adv != third {
		t.Fatal("changed document did not replace the cached record")
	}

	a.disc.FlushID(adv.Adv, third.AdvID())
	if fourth := ask(); fourth == third {
		t.Fatal("a flushed record was revived without decoding its document")
	}
}

func TestListenerRemoval(t *testing.T) {
	c := newCluster(t)
	a := c.addPeer("a", 1, rendezvous.RoleEdge)
	b := c.addPeer("b", 2, rendezvous.RoleEdge)
	if err := b.disc.Publish(pipeAdv(5, "x"), 0, 0); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	calls := 0
	tok := a.disc.AddListener(func(adv.Advertisement, jid.ID) {
		mu.Lock()
		calls++
		mu.Unlock()
	})
	a.disc.RemoveListener(tok)
	if err := a.disc.GetRemoteAdvertisementsFrom("mem://b", adv.Adv, "", "", 0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if calls != 0 {
		t.Fatal("removed listener still fired")
	}
}

func TestClosedServiceRefusesWork(t *testing.T) {
	c := newCluster(t)
	p := c.addPeer("p", 1, rendezvous.RoleEdge)
	p.disc.Close()
	if err := p.disc.Publish(pipeAdv(1, "x"), 0, 0); err == nil {
		t.Fatal("publish after close succeeded")
	}
	if err := p.disc.GetRemoteAdvertisements(adv.Adv, "", "", 0); err == nil {
		t.Fatal("query after close succeeded")
	}
	p.disc.Close() // idempotent
}
