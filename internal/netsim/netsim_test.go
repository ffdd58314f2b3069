package netsim

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func newTestNet(t *testing.T, cfg Config) *Network {
	t.Helper()
	n := New(cfg)
	t.Cleanup(n.Close)
	return n
}

// collector accumulates deliveries for assertions.
type collector struct {
	mu   sync.Mutex
	msgs []string
	from []string
}

func (c *collector) handler(from string, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.msgs = append(c.msgs, string(data))
	c.from = append(c.from, from)
}

func (c *collector) snapshot() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.msgs...)
}

func TestBasicDelivery(t *testing.T) {
	n := newTestNet(t, Config{})
	a, err := n.AddNode("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.AddNode("b")
	if err != nil {
		t.Fatal(err)
	}
	var c collector
	b.SetHandler(c.handler)
	if err := a.Send("b", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if !n.WaitQuiesce(2 * time.Second) {
		t.Fatal("network did not quiesce")
	}
	got := c.snapshot()
	if len(got) != 1 || got[0] != "hello" {
		t.Fatalf("got %v", got)
	}
	st := a.Stats()
	if st.MsgsOut != 1 || st.BytesOut != 5 {
		t.Fatalf("sender stats %+v", st)
	}
	if st := b.Stats(); st.MsgsIn != 1 || st.BytesIn != 5 {
		t.Fatalf("receiver stats %+v", st)
	}
}

func TestFIFOPerPair(t *testing.T) {
	n := newTestNet(t, Config{DefaultLink: Link{Latency: time.Millisecond, Jitter: 3 * time.Millisecond}})
	a, _ := n.AddNode("a")
	b, _ := n.AddNode("b")
	var c collector
	b.SetHandler(c.handler)
	const total = 200
	for i := 0; i < total; i++ {
		if err := a.Send("b", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if !n.WaitQuiesce(5 * time.Second) {
		t.Fatal("did not quiesce")
	}
	got := c.snapshot()
	if len(got) != total {
		t.Fatalf("delivered %d of %d", len(got), total)
	}
	for i, m := range got {
		if m[0] != byte(i) {
			t.Fatalf("out of order at %d: got %d", i, m[0])
		}
	}
}

func TestUnknownNodeAndClosed(t *testing.T) {
	n := newTestNet(t, Config{})
	a, _ := n.AddNode("a")
	if err := a.Send("ghost", nil); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("err = %v", err)
	}
	b, _ := n.AddNode("b")
	b.Close()
	if err := a.Send("b", nil); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("send to closed: %v", err)
	}
	a.Close()
	if err := a.Send("b", nil); !errors.Is(err, ErrNodeClosed) {
		t.Fatalf("send from closed: %v", err)
	}
}

func TestDuplicateNamesAndRestart(t *testing.T) {
	n := newTestNet(t, Config{})
	a, _ := n.AddNode("a")
	if _, err := n.AddNode("a"); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate: %v", err)
	}
	a.Close()
	if _, err := n.AddNode("a"); err != nil {
		t.Fatalf("reuse after close: %v", err)
	}
}

func TestLinkDownAndHeal(t *testing.T) {
	n := newTestNet(t, Config{})
	a, _ := n.AddNode("a")
	b, _ := n.AddNode("b")
	var c collector
	b.SetHandler(c.handler)
	n.SetLink("a", "b", Link{Down: true})
	if err := a.Send("b", []byte("x")); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("err = %v", err)
	}
	n.SetLink("a", "b", Link{})
	if err := a.Send("b", []byte("y")); err != nil {
		t.Fatal(err)
	}
	n.WaitQuiesce(2 * time.Second)
	if got := c.snapshot(); len(got) != 1 || got[0] != "y" {
		t.Fatalf("got %v", got)
	}
}

func TestFirewallSemantics(t *testing.T) {
	n := newTestNet(t, Config{})
	fw, _ := n.AddNode("fw", WithFirewall())
	open, _ := n.AddNode("open")
	var cFW, cOpen collector
	fw.SetHandler(cFW.handler)
	open.SetHandler(cOpen.handler)

	if !fw.Firewalled() || open.Firewalled() {
		t.Fatal("firewall flags wrong")
	}
	// Unsolicited inbound to the firewalled node is refused.
	if err := open.Send("fw", []byte("knock")); !errors.Is(err, ErrFirewalled) {
		t.Fatalf("unsolicited: %v", err)
	}
	// The firewalled node can initiate outbound...
	if err := fw.Send("open", []byte("out")); err != nil {
		t.Fatal(err)
	}
	// ...which punches a return hole.
	if err := open.Send("fw", []byte("reply")); err != nil {
		t.Fatalf("reply over open flow: %v", err)
	}
	n.WaitQuiesce(2 * time.Second)
	if got := cFW.snapshot(); len(got) != 1 || got[0] != "reply" {
		t.Fatalf("fw got %v", got)
	}
}

func TestLossIsDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) int {
		n := New(Config{Seed: seed, DefaultLink: Link{Loss: 0.5}})
		defer n.Close()
		a, _ := n.AddNode("a")
		b, _ := n.AddNode("b")
		var c collector
		b.SetHandler(c.handler)
		for i := 0; i < 100; i++ {
			if err := a.Send("b", []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		n.WaitQuiesce(2 * time.Second)
		lost := a.Stats().MsgsLost
		if lost+len(c.snapshot()) != 100 {
			t.Fatalf("lost %d + delivered %d != 100", lost, len(c.snapshot()))
		}
		return lost
	}
	l1, l2, l3 := run(7), run(7), run(8)
	if l1 != l2 {
		t.Fatalf("same seed, different loss: %d vs %d", l1, l2)
	}
	if l1 == 0 || l1 == 100 {
		t.Fatalf("loss 0.5 produced degenerate count %d", l1)
	}
	_ = l3 // different seed may or may not differ; only determinism is asserted
}

func TestLatencyIsApplied(t *testing.T) {
	n := newTestNet(t, Config{DefaultLink: Link{Latency: 50 * time.Millisecond}})
	a, _ := n.AddNode("a")
	b, _ := n.AddNode("b")
	done := make(chan time.Time, 1)
	b.SetHandler(func(string, []byte) { done <- time.Now() })
	start := time.Now()
	if err := a.Send("b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	arrival := <-done
	if d := arrival.Sub(start); d < 45*time.Millisecond {
		t.Fatalf("delivered after %v, want >= ~50ms", d)
	}
}

func TestBandwidthSerialisesLink(t *testing.T) {
	// 10 KB/s and two 1000-byte messages: second arrives ~200ms after start.
	n := newTestNet(t, Config{DefaultLink: Link{Bandwidth: 10_000}})
	a, _ := n.AddNode("a")
	b, _ := n.AddNode("b")
	var mu sync.Mutex
	var arrivals []time.Time
	b.SetHandler(func(string, []byte) {
		mu.Lock()
		arrivals = append(arrivals, time.Now())
		mu.Unlock()
	})
	payload := make([]byte, 1000)
	start := time.Now()
	for i := 0; i < 2; i++ {
		if err := a.Send("b", payload); err != nil {
			t.Fatal(err)
		}
	}
	if !n.WaitQuiesce(5 * time.Second) {
		t.Fatal("did not quiesce")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %d", len(arrivals))
	}
	if d := arrivals[1].Sub(start); d < 150*time.Millisecond {
		t.Fatalf("second message after %v, want >= ~200ms (bandwidth not applied)", d)
	}
}

func TestHandlerInstalledLate(t *testing.T) {
	n := newTestNet(t, Config{})
	a, _ := n.AddNode("a")
	b, _ := n.AddNode("b")
	if err := a.Send("b", []byte("early")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let it land in the mailbox
	var c collector
	b.SetHandler(c.handler)
	if !n.WaitQuiesce(2 * time.Second) {
		t.Fatal("did not quiesce")
	}
	if got := c.snapshot(); len(got) != 1 || got[0] != "early" {
		t.Fatalf("got %v", got)
	}
}

func TestSendDataIsCopied(t *testing.T) {
	n := newTestNet(t, Config{DefaultLink: Link{Latency: 20 * time.Millisecond}})
	a, _ := n.AddNode("a")
	b, _ := n.AddNode("b")
	var c collector
	b.SetHandler(c.handler)
	buf := []byte("fresh")
	if err := a.Send("b", buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "stale")
	n.WaitQuiesce(2 * time.Second)
	if got := c.snapshot(); len(got) != 1 || got[0] != "fresh" {
		t.Fatalf("got %v (send buffer aliased)", got)
	}
}

func TestHandlerMaySend(t *testing.T) {
	// A handler that forwards must not deadlock the scheduler, and
	// WaitQuiesce must account for the chained message.
	n := newTestNet(t, Config{})
	a, _ := n.AddNode("a")
	relay, _ := n.AddNode("relay")
	c, _ := n.AddNode("c")
	var sink collector
	c.SetHandler(sink.handler)
	relay.SetHandler(func(from string, data []byte) {
		if err := relay.Send("c", data); err != nil {
			t.Errorf("relay send: %v", err)
		}
	})
	a.SetHandler(func(string, []byte) {})
	if err := a.Send("relay", []byte("via")); err != nil {
		t.Fatal(err)
	}
	if !n.WaitQuiesce(2 * time.Second) {
		t.Fatal("did not quiesce")
	}
	if got := sink.snapshot(); len(got) != 1 || got[0] != "via" {
		t.Fatalf("got %v", got)
	}
}

func TestNetworkCloseRejectsWork(t *testing.T) {
	n := New(Config{})
	a, _ := n.AddNode("a")
	n.Close()
	if err := a.Send("a", nil); !errors.Is(err, ErrNetClosed) && !errors.Is(err, ErrNodeClosed) {
		t.Fatalf("send after close: %v", err)
	}
	if _, err := n.AddNode("b"); !errors.Is(err, ErrNetClosed) {
		t.Fatalf("add after close: %v", err)
	}
	n.Close() // idempotent
}

func TestManyNodesConcurrentTraffic(t *testing.T) {
	n := newTestNet(t, Config{DefaultLink: Link{Latency: time.Millisecond}})
	const nodes = 10
	const perNode = 50
	var wg sync.WaitGroup
	var mu sync.Mutex
	received := make(map[string]int)
	all := make([]*Node, nodes)
	for i := 0; i < nodes; i++ {
		name := string(rune('a' + i))
		nd, err := n.AddNode(name)
		if err != nil {
			t.Fatal(err)
		}
		nd.SetHandler(func(from string, data []byte) {
			mu.Lock()
			received[name]++
			mu.Unlock()
		})
		all[i] = nd
	}
	for i := 0; i < nodes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perNode; j++ {
				to := string(rune('a' + (i+1+j)%nodes))
				if err := all[i].Send(to, []byte("m")); err != nil {
					t.Errorf("send: %v", err)
				}
			}
		}(i)
	}
	wg.Wait()
	if !n.WaitQuiesce(10 * time.Second) {
		t.Fatal("did not quiesce")
	}
	mu.Lock()
	total := 0
	for _, v := range received {
		total += v
	}
	mu.Unlock()
	if total != nodes*perNode {
		t.Fatalf("received %d of %d", total, nodes*perNode)
	}
}

func TestWaitQuiesceTimeout(t *testing.T) {
	n := newTestNet(t, Config{DefaultLink: Link{Latency: 500 * time.Millisecond}})
	a, _ := n.AddNode("a")
	b, _ := n.AddNode("b")
	b.SetHandler(func(string, []byte) {})
	if err := a.Send("b", []byte("slow")); err != nil {
		t.Fatal(err)
	}
	if n.WaitQuiesce(30 * time.Millisecond) {
		t.Fatal("claimed quiescence while message in flight")
	}
	if !n.WaitQuiesce(5 * time.Second) {
		t.Fatal("never quiesced")
	}
}
