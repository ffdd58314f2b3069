package discovery

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tps-p2p/tps/internal/jxta/adv"
	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/message"
	"github.com/tps-p2p/tps/internal/jxta/rendezvous"
	"github.com/tps-p2p/tps/internal/jxta/transport/memnet"
	"github.com/tps-p2p/tps/internal/netsim"
)

type testPeer struct {
	name string
	ep   *endpoint.Service
	rdv  *rendezvous.Service
	disc *Service
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
		Role: role, Seeds: seeds, LeaseTTL: 2 * time.Second,
	})
	if err != nil {
		c.t.Fatal(err)
	}
	rdv.Join("net")
	disc, err := New(ep, rdv, "net")
	if err != nil {
		c.t.Fatal(err)
	}
	p := &testPeer{name: name, ep: ep, rdv: rdv, disc: disc}
	c.t.Cleanup(func() {
		p.disc.Close()
		p.rdv.Close()
		_ = p.ep.Close()
	})
	return p
}

func groupAdv(seed uint64, name string) *adv.PeerGroupAdv {
	return &adv.PeerGroupAdv{GroupID: jid.FromSeed(jid.KindGroup, seed), Name: name}
}

func TestLocalPublishAndQuery(t *testing.T) {
	c := newCluster(t)
	p := c.addPeer("p", 1, rendezvous.RoleEdge)
	if err := p.disc.Publish(groupAdv(1, "PS.SkiRental"), 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.disc.Publish(groupAdv(2, "PS.SkiRental/Carving"), 0, 0); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int{
		"PS.SkiRental":   1,
		"PS.SkiRental*":  2,
		"PS.SkiRental/*": 1,
		"*":              2,
		"PS.Ski":         0, // an exact name, not a prefix
		"Other*":         0,
		"":               0,
	} {
		if got := p.disc.GetLocalAdvertisements(name); len(got) != want {
			t.Errorf("%q found %d records, want %d", name, len(got), want)
		}
	}
}

func TestFreshestRecordWinsPerID(t *testing.T) {
	clk := time.Unix(1000, 0)
	var mu sync.Mutex
	now := func() time.Time { mu.Lock(); defer mu.Unlock(); return clk }
	advance := func(d time.Duration) { mu.Lock(); clk = clk.Add(d); mu.Unlock() }

	disc := newSolo(t, WithClock(now)).disc

	a := groupAdv(1, "v1")
	if err := disc.Publish(a, time.Hour, time.Hour); err != nil {
		t.Fatal(err)
	}
	advance(time.Minute)
	b := groupAdv(1, "v2") // same group ID, fresher
	if err := disc.Publish(b, time.Hour, time.Hour); err != nil {
		t.Fatal(err)
	}
	got := disc.GetLocalAdvertisements("v*")
	if len(got) != 1 || got[0].Adv.Name != "v2" {
		t.Fatalf("got %d records, name %q", len(got), got[0].Adv.Name)
	}
	// Re-publishing the stale record must not clobber the fresh one...
	// (same Published time as v1: strictly older than v2)
	got = disc.GetLocalAdvertisements("v*")
	if got[0].Adv.Name != "v2" {
		t.Fatal("stale record replaced fresh one")
	}
	// ...and expiry drops it eventually.
	advance(2 * time.Hour)
	if got := disc.GetLocalAdvertisements("v*"); len(got) != 0 {
		t.Fatalf("expired record still present: %d", len(got))
	}
}

func TestRemoteQueryFindsPublisher(t *testing.T) {
	c := newCluster(t)
	c.addPeer("rdv", 1, rendezvous.RoleRendezvous)
	pub := c.addPeer("pub", 2, rendezvous.RoleEdge, "mem://rdv")
	sub := c.addPeer("sub", 3, rendezvous.RoleEdge, "mem://rdv")
	for _, p := range []*testPeer{pub, sub} {
		if !p.rdv.AwaitConnected("net", 5*time.Second) {
			t.Fatal("not connected")
		}
	}
	if err := pub.disc.Publish(groupAdv(7, "PS.SkiRental"), 0, 0); err != nil {
		t.Fatal(err)
	}

	type hit struct {
		a    *adv.PeerGroupAdv
		from jid.ID
	}
	hits := make(chan hit, 16)
	sub.disc.AddListener(func(a *adv.PeerGroupAdv, from jid.ID) {
		hits <- hit{a, from}
	})
	if err := sub.disc.GetRemoteAdvertisements("PS.*", 10); err != nil {
		t.Fatal(err)
	}
	select {
	case h := <-hits:
		if h.a.Name != "PS.SkiRental" {
			t.Fatalf("found %q", h.a.Name)
		}
		if h.from != pub.ep.PeerID() {
			t.Fatalf("responder %v, want %v", h.from, pub.ep.PeerID())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("discovery response never arrived")
	}
	// The response also landed in the local cache.
	got := sub.disc.GetLocalAdvertisements("PS.SkiRental")
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
		if !p.rdv.AwaitConnected("net", 5*time.Second) {
			t.Fatal("not connected")
		}
	}
	heard := make(chan *adv.PeerGroupAdv, 1)
	sub.disc.AddListener(func(a *adv.PeerGroupAdv, _ jid.ID) { heard <- a })
	if err := pub.disc.RemotePublish(groupAdv(9, "PS.Chat"), time.Hour); err != nil {
		t.Fatal(err)
	}
	select {
	case a := <-heard:
		if a.Name != "PS.Chat" {
			t.Fatalf("heard %q", a.Name)
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
		if !p.rdv.AwaitConnected("net", 5*time.Second) {
			t.Fatal("not connected")
		}
	}
	for i := 0; i < 10; i++ {
		if err := pub.disc.Publish(groupAdv(uint64(100+i), "bulk"), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	var got int
	sub.disc.AddListener(func(*adv.PeerGroupAdv, jid.ID) {
		mu.Lock()
		got++
		mu.Unlock()
	})
	if err := sub.disc.GetRemoteAdvertisements("bulk", 3); err != nil {
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
	for i, name := range []string{"a", "b", "g"} {
		if err := p.disc.Publish(groupAdv(uint64(i+1), name), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	p.disc.Flush()
	if got := p.disc.GetLocalAdvertisements("*"); len(got) != 0 {
		t.Fatalf("after Flush: %d", len(got))
	}
	if st := p.disc.Stats(); st.RecordsInCache != 0 {
		t.Fatalf("after Flush: %+v", st)
	}
}

// TestRepeatedDocumentIsNotDecodedAgain: a response that repeats the
// document a cached record came from hands listeners the advertisement
// already cached (no second decode) and renews the record; a changed
// document for the same group, or the same document after a flush, is
// decoded afresh.
func TestRepeatedDocumentIsNotDecodedAgain(t *testing.T) {
	clk := time.Unix(1000, 0)
	var mu sync.Mutex
	now := func() time.Time { mu.Lock(); defer mu.Unlock(); return clk }
	s := newSolo(t, WithClock(now))
	var last *adv.PeerGroupAdv
	s.disc.AddListener(func(x *adv.PeerGroupAdv, _ jid.ID) { last = x })
	// respond hands s a response carrying a, a minute after the last one.
	respond := func(a *adv.PeerGroupAdv) *adv.PeerGroupAdv {
		t.Helper()
		mu.Lock()
		clk = clk.Add(time.Minute)
		mu.Unlock()
		s.disc.handle(frame(jid.FromSeed(jid.KindPeer, 2), kindResponse, responsePayload(t, a), ""), "mem://from")
		return last
	}
	cached := func() adv.Record {
		t.Helper()
		recs := s.disc.GetLocalAdvertisements("PS.Direct")
		if len(recs) != 1 {
			t.Fatalf("%d records cached, want 1", len(recs))
		}
		return recs[0]
	}

	first := respond(groupAdv(5, "PS.Direct"))
	before := cached()
	if again := respond(groupAdv(5, "PS.Direct")); again != first {
		t.Fatal("an unchanged document was decoded a second time")
	}
	if after := cached(); after.Adv != first || !after.Published.After(before.Published) {
		t.Fatalf("record not renewed: published %v, then %v", before.Published, after.Published)
	}
	if st := s.disc.Stats(); st.RecordsReceived != 2 {
		t.Fatalf("RecordsReceived = %d, want 2: a repeat is still a record received", st.RecordsReceived)
	}

	changed := groupAdv(5, "PS.Direct")
	changed.Desc = "changed"
	third := respond(changed)
	if third == first || third.Desc != "changed" {
		t.Fatalf("changed document not decoded: %+v", third)
	}
	if cached().Adv != third {
		t.Fatal("changed document did not replace the cached record")
	}

	s.disc.Flush()
	if fourth := respond(changed); fourth == third {
		t.Fatal("a flushed record was revived without decoding its document")
	}
}

func TestListenerRemoval(t *testing.T) {
	s := newSolo(t)
	var calls atomic.Int64
	tok := s.disc.AddListener(func(*adv.PeerGroupAdv, jid.ID) { calls.Add(1) })
	s.disc.RemoveListener(tok)
	s.disc.handle(frame(jid.FromSeed(jid.KindPeer, 2), kindResponse, responsePayload(t, groupAdv(5, "x")), ""), "mem://from")
	if s.heard.Load() != 1 {
		t.Fatal("the remaining listener did not fire")
	}
	if calls.Load() != 0 {
		t.Fatal("removed listener still fired")
	}
}

func TestClosedServiceRefusesWork(t *testing.T) {
	c := newCluster(t)
	p := c.addPeer("p", 1, rendezvous.RoleEdge)
	p.disc.Close()
	if err := p.disc.Publish(groupAdv(1, "x"), 0, 0); err == nil {
		t.Fatal("publish after close succeeded")
	}
	if err := p.disc.GetRemoteAdvertisements("*", 0); err == nil {
		t.Fatal("query after close succeeded")
	}
	p.disc.Close() // idempotent
}

// fakeEndpoint records what a discovery service sends; handle is driven
// by hand.
type fakeEndpoint struct {
	id jid.ID
	mu sync.Mutex
	to []endpoint.Address
	// msgs[i] was sent to to[i].
	msgs []*message.Message
}

func (f *fakeEndpoint) Send(to endpoint.Address, _, _ string, msg *message.Message) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.to = append(f.to, to)
	f.msgs = append(f.msgs, msg)
	return nil
}

func (f *fakeEndpoint) LocalAddresses() []endpoint.Address { return []endpoint.Address{"mem://self"} }

func (f *fakeEndpoint) PeerID() jid.ID { return f.id }

func (f *fakeEndpoint) RegisterHandler(string, string, endpoint.Handler) error { return nil }

func (f *fakeEndpoint) UnregisterHandler(string, string) {}

func (f *fakeEndpoint) sent() ([]endpoint.Address, []*message.Message) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]endpoint.Address(nil), f.to...), append([]*message.Message(nil), f.msgs...)
}

// solo is a discovery service over a fakeEndpoint, and a rendezvous
// service on an endpoint with no transport, which never propagates. It
// holds one group advertisement named "PS.Held", and counts its
// listener's calls.
type solo struct {
	ep    *fakeEndpoint
	disc  *Service
	heard *atomic.Int64
}

func newSolo(t testing.TB, opts ...Option) solo {
	t.Helper()
	ep := &fakeEndpoint{id: jid.FromSeed(jid.KindPeer, 1)}
	rdv, err := rendezvous.New(endpoint.New(ep.id), rendezvous.Config{Role: rendezvous.RoleEdge})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rdv.Close)
	disc, err := New(ep, rdv, "net", opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(disc.Close)
	var heard atomic.Int64
	disc.AddListener(func(*adv.PeerGroupAdv, jid.ID) { heard.Add(1) })
	return solo{ep: ep, disc: disc, heard: &heard}
}

func (s solo) hold(t testing.TB) {
	t.Helper()
	if err := s.disc.Publish(groupAdv(7, "PS.Held"), 0, 0); err != nil {
		t.Fatal(err)
	}
}

// frame builds a discovery message from src as it reaches handle.
func frame(src jid.ID, kind string, payload []byte, srcAddr string) *message.Message {
	msg := message.New(src)
	msg.AddString(elemNS, elemKind, kind)
	msg.AddBytes(elemNS, elemPayload, payload)
	if srcAddr != "" {
		msg.AddString(elemNS, elemSrcAddr, srcAddr)
	}
	return msg
}

func queryPayload(t testing.TB, name string) []byte {
	t.Helper()
	payload, err := encodeQuery(name, 0)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// responsePayload is a response carrying a with an hour to live.
func responsePayload(t testing.TB, a *adv.PeerGroupAdv) []byte {
	t.Helper()
	payload, err := encodeResponse([]adv.Record{{
		Adv: a, Published: time.Now(), Lifetime: time.Hour, Expiration: time.Hour,
	}}, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// peerAdvResponse is a response whose one item is a peer advertisement
// as a peer wrote it before peer advertisements went.
var peerAdvResponse = []byte(`<DiscoveryResponse><Item expiration="60000">` +
	`&lt;PeerAdvertisement&gt;&lt;PID&gt;urn:jxta:uuid-0000000000000001c3910c8d016b07d701&lt;/PID&gt;` +
	`&lt;GID&gt;urn:jxta:uuid-0000004e45545047717d25c48c628a1902&lt;/GID&gt;&lt;Name&gt;PS.Held&lt;/Name&gt;` +
	`&lt;EndpointAddresses&gt;&lt;Addr&gt;mem://n1&lt;/Addr&gt;&lt;/EndpointAddresses&gt;&lt;/PeerAdvertisement&gt;` +
	`</Item></DiscoveryResponse>`)

// TestEchoedQueryIsNotAnswered: a propagated query that comes back to
// the peer that issued it is not answered, even from a cache that
// matches it.
func TestEchoedQueryIsNotAnswered(t *testing.T) {
	s := newSolo(t)
	s.hold(t)
	msg, err := s.disc.query("PS.*", 0)
	if err != nil {
		t.Fatal(err)
	}
	s.disc.handle(msg, "mem://rdv")
	if to, _ := s.ep.sent(); len(to) != 0 {
		t.Fatalf("the issuer answered its own query to %v", to)
	}
	// The same query from any other peer is answered, to the address it
	// names.
	other := frame(jid.FromSeed(jid.KindPeer, 2), kindQuery, queryPayload(t, "PS.*"), "mem://querier")
	s.disc.handle(other, "mem://rdv")
	if to, _ := s.ep.sent(); len(to) != 1 || to[0] != "mem://querier" {
		t.Fatalf("answers went to %v, want [mem://querier]", to)
	}
}

// TestQueryWithoutSrcAddrIsAnsweredToFrom: a query that names no return
// address is answered to the hop it came from.
func TestQueryWithoutSrcAddrIsAnsweredToFrom(t *testing.T) {
	s := newSolo(t)
	s.hold(t)
	s.disc.handle(frame(jid.FromSeed(jid.KindPeer, 2), kindQuery, queryPayload(t, "PS.Held"), ""), "mem://from")
	to, msgs := s.ep.sent()
	if len(to) != 1 || to[0] != "mem://from" {
		t.Fatalf("answers went to %v, want [mem://from]", to)
	}
	if kind := msgs[0].Text(elemNS, elemKind); kind != kindResponse {
		t.Fatalf("answered with a %q", kind)
	}
	if _, ok := msgs[0].Element(elemNS, elemSrcAddr); ok {
		t.Fatal("a response carries a return address")
	}
}

// TestMalformedTrafficIsDropped: a malformed query gets no answer, a
// malformed response reaches no listener, and neither does a response
// carrying an advertisement of another type, or a message of no known
// kind.
func TestMalformedTrafficIsDropped(t *testing.T) {
	s := newSolo(t)
	s.hold(t)
	other := jid.FromSeed(jid.KindPeer, 2)
	// A well-formed response whose one item is no advertisement.
	badItem := []byte(`<DiscoveryResponse><Item expiration="60000">&lt;NoSuchAdvertisement/&gt;</Item></DiscoveryResponse>`)
	for _, msg := range []*message.Message{
		frame(other, kindQuery, []byte("<DiscoveryQuery><Kind>"), "mem://querier"),
		frame(other, kindQuery, nil, "mem://querier"),
		frame(other, kindResponse, []byte("not xml"), ""),
		frame(other, kindResponse, badItem, ""),
		frame(other, kindResponse, peerAdvResponse, ""),
		frame(other, "", queryPayload(t, "PS.Held"), "mem://querier"),
		frame(other, "gossip", queryPayload(t, "PS.Held"), "mem://querier"),
	} {
		s.disc.handle(msg, "mem://from")
	}
	if to, _ := s.ep.sent(); len(to) != 0 {
		t.Fatalf("malformed traffic was answered to %v", to)
	}
	if n := s.heard.Load(); n != 0 {
		t.Fatalf("malformed traffic reached the listener %d times", n)
	}
}

// TestPropagatedQueryIsAnsweredStraightToTheQuerier: a query crosses the
// rendezvous, its answer does not. The rendezvous forwards the query
// once and receives no response: not to forward, and not for its own
// discovery either.
func TestPropagatedQueryIsAnsweredStraightToTheQuerier(t *testing.T) {
	c := newCluster(t)
	rdv := c.addPeer("rdv", 1, rendezvous.RoleRendezvous)
	pub := c.addPeer("pub", 2, rendezvous.RoleEdge, "mem://rdv")
	sub := c.addPeer("sub", 3, rendezvous.RoleEdge, "mem://rdv")
	for _, p := range []*testPeer{pub, sub} {
		if !p.rdv.AwaitConnected("net", 5*time.Second) {
			t.Fatal("not connected")
		}
	}
	if err := pub.disc.Publish(groupAdv(7, "PS.SkiRental"), 0, 0); err != nil {
		t.Fatal(err)
	}
	hits := make(chan jid.ID, 4)
	sub.disc.AddListener(func(_ *adv.PeerGroupAdv, from jid.ID) { hits <- from })
	before := rdv.rdv.Snapshot().Counters["propagated"]
	if err := sub.disc.GetRemoteAdvertisements("PS.*", 0); err != nil {
		t.Fatal(err)
	}
	select {
	case from := <-hits:
		if from != pub.ep.PeerID() {
			t.Fatalf("answered by %v, want %v", from, pub.ep.PeerID())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no answer")
	}
	c.net.WaitQuiesce(5 * time.Second)
	if n := rdv.rdv.Snapshot().Counters["propagated"] - before; n != 1 {
		t.Fatalf("the rendezvous propagated %d messages, want the query alone", n)
	}
	if st := rdv.disc.Stats(); st.RecordsReceived != 0 {
		t.Fatalf("the answer went through the rendezvous: %+v", st)
	}
}

// FuzzDiscoveryFrame feeds handle any message type (query, response or
// neither), payload and return address, from this peer or another: it
// never panics, and it answers exactly the well-formed queries from
// another peer that match the cache, to the address the query names (or
// the hop it came from). Only a response reaches a listener.
func FuzzDiscoveryFrame(f *testing.F) {
	held, miss := queryPayload(f, "PS.Held"), queryPayload(f, "PS.Other")
	resp := responsePayload(f, groupAdv(3, "PS.Pushed"))
	f.Add(kindQuery, held, "mem://querier", false)
	f.Add(kindQuery, held, "", false)
	f.Add(kindQuery, held, "mem://querier", true)
	f.Add(kindQuery, miss, "mem://querier", false)
	f.Add(kindQuery, []byte("<DiscoveryQuery>"), "", false)
	f.Add(kindResponse, resp, "", false)
	f.Add(kindResponse, []byte("<DiscoveryResponse><Item"), "", false)
	f.Add("", held, "mem://querier", false)
	f.Add(kindResponse, peerAdvResponse, "", false)
	f.Fuzz(func(t *testing.T, kind string, payload []byte, srcAddr string, fromSelf bool) {
		s := newSolo(t)
		s.hold(t)
		src := jid.FromSeed(jid.KindPeer, 2)
		if fromSelf {
			src = s.ep.PeerID()
		}
		s.disc.handle(frame(src, kind, payload, srcAddr), "mem://from")

		answer := false
		if q, err := decodeQuery(payload); err == nil && kind == kindQuery && !fromSelf {
			answer = len(s.disc.GetLocalAdvertisements(q.Name)) > 0
		}
		to, msgs := s.ep.sent()
		switch {
		case !answer && len(to) != 0:
			t.Fatalf("answered a %q message to %v", kind, to)
		case answer && len(to) != 1:
			t.Fatalf("a matching query got %d answers", len(to))
		case answer:
			want := endpoint.Address(srcAddr)
			if want == "" {
				want = "mem://from"
			}
			if to[0] != want || msgs[0].Text(elemNS, elemKind) != kindResponse {
				t.Fatalf("answered with a %q to %v, want a response to %v", msgs[0].Text(elemNS, elemKind), to[0], want)
			}
		}
		if n := s.heard.Load(); n != 0 && kind != kindResponse {
			t.Fatalf("a %q message reached the listener %d times", kind, n)
		}
	})
}
