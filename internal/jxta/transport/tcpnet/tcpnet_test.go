package tcpnet_test

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/message"
	"github.com/tps-p2p/tps/internal/jxta/transport/tcpnet"
)

type frameSink struct {
	mu     sync.Mutex
	frames [][]byte
	ch     chan struct{}
}

func newFrameSink() *frameSink { return &frameSink{ch: make(chan struct{}, 256)} }

func (s *frameSink) recv(frame []byte) {
	s.mu.Lock()
	s.frames = append(s.frames, frame)
	s.mu.Unlock()
	select {
	case s.ch <- struct{}{}:
	default: // wait() also polls, so a dropped signal cannot stall it
	}
}

func (s *frameSink) wait(t *testing.T, n int) [][]byte {
	t.Helper()
	deadline := time.After(10 * time.Second)
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		s.mu.Lock()
		if len(s.frames) >= n {
			out := append([][]byte(nil), s.frames...)
			s.mu.Unlock()
			return out
		}
		s.mu.Unlock()
		select {
		case <-s.ch:
		case <-tick.C:
		case <-deadline:
			t.Fatalf("timeout waiting for %d frames", n)
		}
	}
}

func listen(t *testing.T) (*tcpnet.Transport, *frameSink) {
	t.Helper()
	tr, err := tcpnet.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tr.Close() })
	s := newFrameSink()
	tr.SetReceiver(s.recv)
	return tr, s
}

func TestBasicFrameExchange(t *testing.T) {
	a, _ := listen(t)
	b, bs := listen(t)
	if a.Scheme() != "tcp" {
		t.Fatalf("scheme = %q", a.Scheme())
	}
	payload := []byte("hello over tcp")
	if err := a.Send(b.LocalAddress(), payload); err != nil {
		t.Fatal(err)
	}
	got := bs.wait(t, 1)
	if !bytes.Equal(got[0], payload) {
		t.Fatalf("got %q", got[0])
	}
}

func TestManyFramesOrdered(t *testing.T) {
	a, _ := listen(t)
	b, bs := listen(t)
	const n = 500
	for i := 0; i < n; i++ {
		if err := a.Send(b.LocalAddress(), []byte{byte(i), byte(i >> 8)}); err != nil {
			t.Fatal(err)
		}
	}
	got := bs.wait(t, n)
	for i := 0; i < n; i++ {
		if got[i][0] != byte(i) || got[i][1] != byte(i>>8) {
			t.Fatalf("frame %d out of order: %v", i, got[i])
		}
	}
}

func TestConcurrentSendersDoNotInterleave(t *testing.T) {
	a, _ := listen(t)
	b, bs := listen(t)
	const goroutines = 8
	const perG = 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte('A' + g)}, 1000)
			for i := 0; i < perG; i++ {
				if err := a.Send(b.LocalAddress(), payload); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	got := bs.wait(t, goroutines*perG)
	for i, f := range got {
		if len(f) != 1000 {
			t.Fatalf("frame %d has length %d (interleaved writes)", i, len(f))
		}
		for _, c := range f {
			if c != f[0] {
				t.Fatalf("frame %d mixes payloads (interleaved writes)", i)
			}
		}
	}
}

func TestBidirectionalOverSingleConnection(t *testing.T) {
	a, as := listen(t)
	b, bs := listen(t)
	if err := a.Send(b.LocalAddress(), []byte("ping")); err != nil {
		t.Fatal(err)
	}
	bs.wait(t, 1)
	// b replies by dialing a's listener (address-based, as the endpoint
	// layer does via the SrcAddr envelope element).
	if err := b.Send(a.LocalAddress(), []byte("pong")); err != nil {
		t.Fatal(err)
	}
	got := as.wait(t, 1)
	if string(got[0]) != "pong" {
		t.Fatalf("got %q", got[0])
	}
}

func TestSendToDeadPeerFailsFast(t *testing.T) {
	// Sends are asynchronous: the first enqueue succeeds, the flusher's
	// dial fails, and the host's circuit breaker starts failing sends
	// fast instead of queueing frames for a dead peer.
	a, _ := listen(t)
	dead, _ := tcpnet.Listen("127.0.0.1:0")
	addr := dead.LocalAddress()
	_ = dead.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := a.Send(addr, []byte("x"))
		if errors.Is(err, tcpnet.ErrPeerDown) {
			break
		}
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("breaker never opened for dead peer")
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := a.Stats()
	if st.DialFailures == 0 {
		t.Fatalf("stats = %+v, want DialFailures > 0", st)
	}
	if st.FailFast == 0 {
		t.Fatalf("stats = %+v, want FailFast > 0", st)
	}
}

func TestFullQueueShedsOldest(t *testing.T) {
	// A peer that accepts the connection but never reads stalls the
	// flusher on the kernel buffers; the bounded queue must shed its own
	// oldest frames without blocking the sender.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close()
			<-stop // hold the connection open, read nothing
		}
	}()

	a, err := tcpnet.ListenConfig("127.0.0.1:0", tcpnet.Config{
		QueueLen:     8,
		WriteTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() })
	a.SetReceiver(func([]byte) {})

	addr := endpoint.MakeAddress("tcp", ln.Addr().String())
	payload := bytes.Repeat([]byte("x"), 256<<10)
	start := time.Now()
	for i := 0; i < 200; i++ {
		// Errors are fine once the breaker opens; blocking is not.
		_ = a.Send(addr, payload)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("200 sends to a stalled peer took %v (sender blocked)", elapsed)
	}
	waitForStat(t, func(st tcpnet.Stats) bool { return st.Dropped > 0 || st.WriteFailures > 0 }, a)
}

func waitForStat(t *testing.T, cond func(tcpnet.Stats) bool, tr *tcpnet.Transport) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond(tr.Stats()) {
		if time.Now().After(deadline) {
			t.Fatalf("stats never converged: %+v", tr.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestStatsCountSends(t *testing.T) {
	a, _ := listen(t)
	b, bs := listen(t)
	const n = 10
	for i := 0; i < n; i++ {
		if err := a.Send(b.LocalAddress(), []byte("frame")); err != nil {
			t.Fatal(err)
		}
	}
	bs.wait(t, n)
	// The flusher counts a frame as sent after the write returns, so the
	// receiver can hold frame n before the sender has counted it.
	waitForStat(t, func(st tcpnet.Stats) bool { return st.Sent == n }, a)
	st := a.Stats()
	if st.Enqueued != n || st.Sent != n {
		t.Fatalf("stats = %+v, want Enqueued = Sent = %d", st, n)
	}
	if st.Dropped != 0 || st.FailFast != 0 {
		t.Fatalf("healthy peer shed frames: %+v", st)
	}
}

func TestReconnectAfterPeerRestart(t *testing.T) {
	a, _ := listen(t)
	b1, err := tcpnet.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s1 := newFrameSink()
	b1.SetReceiver(s1.recv)
	addr := b1.LocalAddress()
	if err := a.Send(addr, []byte("one")); err != nil {
		t.Fatal(err)
	}
	s1.wait(t, 1)
	_ = b1.Close()

	// Restart a listener on the same port.
	b2, err := tcpnet.Listen(addr.Host())
	if err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	t.Cleanup(func() { _ = b2.Close() })
	s2 := newFrameSink()
	b2.SetReceiver(s2.recv)

	// First send may fail while the stale cached connection is detected;
	// the transport redials internally, so within a couple of attempts the
	// frame must arrive.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := a.Send(addr, []byte("two")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("could not re-send after peer restart")
		}
		time.Sleep(20 * time.Millisecond)
	}
	got := s2.wait(t, 1)
	if string(got[0]) != "two" {
		t.Fatalf("got %q", got[0])
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	a, _ := listen(t)
	b, _ := listen(t)
	huge := make([]byte, tcpnet.MaxFrame+1)
	if err := a.Send(b.LocalAddress(), huge); err == nil {
		t.Fatal("oversize frame accepted")
	}
}

func TestClosedTransportRefusesSend(t *testing.T) {
	a, _ := listen(t)
	b, _ := listen(t)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(b.LocalAddress(), []byte("x")); !errors.Is(err, tcpnet.ErrClosed) {
		t.Fatalf("err = %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// TestEndpointOverTCP runs the endpoint layer over real TCP: the
// integration the rendezvous daemon (cmd/rendezvous) relies on.
func TestEndpointOverTCP(t *testing.T) {
	mk := func(seed uint64) *endpoint.Service {
		tr, err := tcpnet.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		svc := endpoint.New(jid.FromSeed(jid.KindPeer, seed))
		if err := svc.AddTransport(tr); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = svc.Close() })
		return svc
	}
	a, b := mk(1), mk(2)

	type rx struct {
		msg  *message.Message
		from endpoint.Address
	}
	got := make(chan rx, 1)
	if err := b.RegisterHandler("echo", "", func(m *message.Message, from endpoint.Address) {
		got <- rx{m, from}
	}); err != nil {
		t.Fatal(err)
	}
	m := message.New(a.PeerID())
	m.AddString("app", "body", "over-tcp")
	if err := a.Send(b.LocalAddresses()[0], "echo", "", m); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-got:
		if r.msg.Text("app", "body") != "over-tcp" {
			t.Fatalf("body = %q", r.msg.Text("app", "body"))
		}
		if r.from != a.LocalAddresses()[0] {
			t.Fatalf("from = %q, want %q", r.from, a.LocalAddresses()[0])
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout")
	}
}
