package endpoint_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/message"
	"github.com/tps-p2p/tps/internal/jxta/transport/memnet"
	"github.com/tps-p2p/tps/internal/netsim"
)

func TestAddressParsing(t *testing.T) {
	a := endpoint.Address("tcp://10.0.0.1:9701")
	if a.Scheme() != "tcp" || a.Host() != "10.0.0.1:9701" {
		t.Fatalf("scheme=%q host=%q", a.Scheme(), a.Host())
	}
	if got := endpoint.MakeAddress("mem", "n1"); got != "mem://n1" {
		t.Fatalf("MakeAddress = %q", got)
	}
	bare := endpoint.Address("no-scheme")
	if bare.Scheme() != "" || bare.Host() != "no-scheme" {
		t.Fatalf("bare scheme=%q host=%q", bare.Scheme(), bare.Host())
	}
}

// memPair builds two endpoint services connected through a netsim network.
func memPair(t *testing.T) (*endpoint.Service, *endpoint.Service) {
	t.Helper()
	net := netsim.New(netsim.Config{})
	t.Cleanup(net.Close)
	mk := func(name string, seed uint64) *endpoint.Service {
		node, err := net.AddNode(name)
		if err != nil {
			t.Fatal(err)
		}
		svc := endpoint.New(jid.FromSeed(jid.KindPeer, seed))
		if err := svc.AddTransport(memnet.New(node)); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = svc.Close() })
		return svc
	}
	return mk("a", 1), mk("b", 2)
}

type sink struct {
	mu   sync.Mutex
	msgs []*message.Message
	from []endpoint.Address
	ch   chan struct{}
}

func newSink() *sink { return &sink{ch: make(chan struct{}, 64)} }

func (s *sink) handler(v message.View, from endpoint.Address) {
	s.mu.Lock()
	s.msgs = append(s.msgs, v.Message())
	s.from = append(s.from, from)
	s.mu.Unlock()
	select {
	case s.ch <- struct{}{}:
	default: // wait() also polls, so a dropped signal cannot stall it
	}
}

func (s *sink) wait(t *testing.T, n int) []*message.Message {
	t.Helper()
	deadline := time.After(10 * time.Second)
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		s.mu.Lock()
		if len(s.msgs) >= n {
			out := append([]*message.Message(nil), s.msgs...)
			s.mu.Unlock()
			return out
		}
		s.mu.Unlock()
		select {
		case <-s.ch:
		case <-tick.C:
		case <-deadline:
			t.Fatalf("timed out waiting for %d messages", n)
		}
	}
}

func TestSendAndDemux(t *testing.T) {
	a, b := memPair(t)
	disc := newSink()
	res := newSink()
	if err := b.RegisterHandler("jxta.discovery", "g1", disc.handler); err != nil {
		t.Fatal(err)
	}
	if err := b.RegisterHandler("jxta.resolver", "g1", res.handler); err != nil {
		t.Fatal(err)
	}

	m1 := message.New(a.PeerID())
	m1.AddString("app", "q", "find-peers")
	if err := a.Send("mem://b", "jxta.discovery", "g1", m1); err != nil {
		t.Fatal(err)
	}
	m2 := message.New(a.PeerID())
	m2.AddString("app", "q", "resolve")
	if err := a.Send("mem://b", "jxta.resolver", "g1", m2); err != nil {
		t.Fatal(err)
	}

	got := disc.wait(t, 1)
	if got[0].Text("app", "q") != "find-peers" {
		t.Fatalf("discovery got %q", got[0].Text("app", "q"))
	}
	got = res.wait(t, 1)
	if got[0].Text("app", "q") != "resolve" {
		t.Fatalf("resolver got %q", got[0].Text("app", "q"))
	}
}

func TestWildcardParamHandler(t *testing.T) {
	a, b := memPair(t)
	wild := newSink()
	exact := newSink()
	if err := b.RegisterHandler("svc", "", wild.handler); err != nil {
		t.Fatal(err)
	}
	if err := b.RegisterHandler("svc", "special", exact.handler); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("mem://b", "svc", "anything", message.New(a.PeerID())); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("mem://b", "svc", "special", message.New(a.PeerID())); err != nil {
		t.Fatal(err)
	}
	wild.wait(t, 1)
	exact.wait(t, 1)
	// With the exact binding gone, its param falls to the wildcard.
	b.UnregisterHandler("svc", "special")
	if err := a.Send("mem://b", "svc", "special", message.New(a.PeerID())); err != nil {
		t.Fatal(err)
	}
	wild.wait(t, 2)
}

func TestSourceAddressOnEnvelope(t *testing.T) {
	a, b := memPair(t)
	s := newSink()
	if err := b.RegisterHandler("svc", "", s.handler); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("mem://b", "svc", "", message.New(a.PeerID())); err != nil {
		t.Fatal(err)
	}
	s.wait(t, 1)
	s.mu.Lock()
	from := s.from[0]
	s.mu.Unlock()
	if from != "mem://a" {
		t.Fatalf("from = %q, want mem://a", from)
	}
}

func TestReplyViaFromAddress(t *testing.T) {
	a, b := memPair(t)
	pong := newSink()
	if err := a.RegisterHandler("pong", "", pong.handler); err != nil {
		t.Fatal(err)
	}
	if err := b.RegisterHandler("ping", "", func(v message.View, from endpoint.Address) {
		reply := message.New(b.PeerID())
		reply.AddString("app", "re", v.Text("app", "n"))
		if err := b.Send(from, "pong", "", reply); err != nil {
			t.Errorf("reply: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	ping := message.New(a.PeerID())
	ping.AddString("app", "n", "7")
	if err := a.Send("mem://b", "ping", "", ping); err != nil {
		t.Fatal(err)
	}
	got := pong.wait(t, 1)
	if got[0].Text("app", "re") != "7" {
		t.Fatalf("reply payload %q", got[0].Text("app", "re"))
	}
}

func TestNoTransportForScheme(t *testing.T) {
	a, _ := memPair(t)
	err := a.Send("tcp://1.2.3.4:1", "svc", "", message.New(a.PeerID()))
	if !errors.Is(err, endpoint.ErrNoTransport) {
		t.Fatalf("err = %v", err)
	}
}

func TestDuplicateHandlerRejected(t *testing.T) {
	a, _ := memPair(t)
	h := func(message.View, endpoint.Address) {}
	if err := a.RegisterHandler("svc", "p", h); err != nil {
		t.Fatal(err)
	}
	if err := a.RegisterHandler("svc", "p", h); !errors.Is(err, endpoint.ErrDupHandler) {
		t.Fatalf("dup err = %v", err)
	}
	a.UnregisterHandler("svc", "p")
	if err := a.RegisterHandler("svc", "p", h); err != nil {
		t.Fatalf("re-register after unregister: %v", err)
	}
	if err := a.RegisterHandler("svc", "", h); err != nil {
		t.Fatal(err)
	}
	if err := a.RegisterHandler("svc", "", h); !errors.Is(err, endpoint.ErrDupHandler) {
		t.Fatalf("dup wildcard err = %v", err)
	}
}

func TestStatsAndDrops(t *testing.T) {
	a, b := memPair(t)
	s := newSink()
	if err := b.RegisterHandler("known", "", s.handler); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("mem://b", "known", "", message.New(a.PeerID())); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("mem://b", "unknown", "", message.New(a.PeerID())); err != nil {
		t.Fatal(err)
	}
	s.wait(t, 1)
	// A frame is counted in before it is demuxed, so the drop counter
	// trails msgs_in: wait for both.
	waitFor(t, func() bool {
		c := b.Snapshot().Counters
		return c["msgs_in"] == 2 && c["dropped"] == 1
	})
	if c := a.Snapshot().Counters; c["msgs_out"] != 2 || c["bytes_out"] == 0 {
		t.Fatalf("sender counters %v", c)
	}
	bst := b.Snapshot()
	if bst.Counters["dropped"] != 1 {
		t.Fatalf("receiver counters %v", bst.Counters)
	}
	if bst.Gauges["uptime_s"] <= 0 {
		t.Fatal("uptime not positive")
	}
}

func TestClosedServiceRefusesWork(t *testing.T) {
	a, _ := memPair(t)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if err := a.Send("mem://b", "svc", "", message.New(a.PeerID())); !errors.Is(err, endpoint.ErrClosed) {
		t.Fatalf("send after close: %v", err)
	}
	if err := a.RegisterHandler("svc", "", func(message.View, endpoint.Address) {}); !errors.Is(err, endpoint.ErrClosed) {
		t.Fatalf("register after close: %v", err)
	}
}

func TestSendDoesNotMutateCallerMessage(t *testing.T) {
	a, b := memPair(t)
	s := newSink()
	if err := b.RegisterHandler("svc", "", s.handler); err != nil {
		t.Fatal(err)
	}
	m := message.New(a.PeerID())
	m.AddString("app", "k", "v")
	if err := a.Send("mem://b", "svc", "", m); err != nil {
		t.Fatal(err)
	}
	s.wait(t, 1)
	if _, ok := m.Element(endpoint.ElemNamespace, "DstSvc"); ok {
		t.Fatal("Send leaked envelope elements into the caller's message")
	}
}

func TestDestinationHelper(t *testing.T) {
	a, b := memPair(t)
	s := newSink()
	if err := b.RegisterHandler("svc", "param7", s.handler); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("mem://b", "svc", "param7", message.New(a.PeerID())); err != nil {
		t.Fatal(err)
	}
	got := s.wait(t, 1)
	svc, param, err := endpoint.Destination(got[0])
	if err != nil || svc != "svc" || param != "param7" {
		t.Fatalf("Destination = %q %q %v", svc, param, err)
	}
	if _, _, err := endpoint.Destination(message.New(a.PeerID())); !errors.Is(err, endpoint.ErrBadDestFormat) {
		t.Fatalf("bare message: %v", err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
