package tcpnet_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tps-p2p/tps/internal/israce"
	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/message"
	"github.com/tps-p2p/tps/internal/jxta/transport/tcpnet"
	"github.com/tps-p2p/tps/internal/retry"
)

type frameSink struct {
	mu     sync.Mutex
	frames [][]byte
	ch     chan struct{}
}

func newFrameSink() *frameSink { return &frameSink{ch: make(chan struct{}, 256)} }

// recv keeps the frame as it is: the transport gave it away.
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

// stalledPeer listens, accepts and never reads, so writes to it succeed
// until the kernel buffers are full and block from then on.
func stalledPeer(t *testing.T) endpoint.Address {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop); ln.Close() })
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
	return endpoint.MakeAddress("tcp", ln.Addr().String())
}

func TestFullQueueShedsOldest(t *testing.T) {
	// A peer that accepts the connection but never reads stalls the
	// flusher on the kernel buffers; the bounded queue must shed its own
	// oldest frames without blocking the sender.
	addr := stalledPeer(t)
	a, err := tcpnet.ListenConfig("127.0.0.1:0", tcpnet.Config{
		QueueLen:     8,
		WriteTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() })
	a.SetReceiver(func([]byte) {})

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

// TestBurstAcrossPeerRestart sends 500 numbered frames while the peer
// goes away and comes back on the same port. The flusher holds batches,
// not frames, when the connection dies, so this is where a batch put
// back out of order, twice, or not at all would show.
func TestBurstAcrossPeerRestart(t *testing.T) {
	a, err := tcpnet.ListenConfig("127.0.0.1:0", tcpnet.Config{
		Backoff: retry.Policy{Initial: 2 * time.Millisecond, Max: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() })
	b1, err := tcpnet.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s1 := newFrameSink()
	b1.SetReceiver(s1.recv)
	addr := b1.LocalAddress()

	// send retries while the breaker is open, so every frame is enqueued
	// exactly once.
	send := func(from, to int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for i := from; i < to; i++ {
			frame := binary.BigEndian.AppendUint32(nil, uint32(i))
			for {
				err := a.Send(addr, frame)
				if err == nil {
					break
				}
				if !errors.Is(err, tcpnet.ErrPeerDown) || time.Now().After(deadline) {
					t.Fatalf("send %d: %v", i, err)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	const n = 500
	send(0, 200)
	got := s1.wait(t, 200)
	_ = b1.Close()
	send(200, 350) // the peer is down: dials fail and batches go back
	waitForStat(t, func(st tcpnet.Stats) bool { return st.DialFailures > 0 }, a)
	b2, err := tcpnet.Listen(addr.Host())
	if err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	t.Cleanup(func() { _ = b2.Close() })
	s2 := newFrameSink()
	b2.SetReceiver(s2.recv)
	send(350, n)
	got = append(got, s2.wait(t, n-200)...)

	// The dead connection is detected before anything is written to it
	// (the flusher's probe, or the reader's EOF closing it), so nothing is
	// lost either: the frames are exactly 0..n-1.
	for i, f := range got {
		if seq := binary.BigEndian.Uint32(f); seq != uint32(i) {
			t.Fatalf("frame %d carries %d: reordered, duplicated or lost", i, seq)
		}
	}
	waitForStat(t, func(st tcpnet.Stats) bool { return st.Sent == n }, a)
	st := a.Stats()
	if depth := int64(a.QueueDepth(addr.Host())); st.Enqueued != st.Sent+st.Dropped+depth || st.Dropped != 0 {
		t.Fatalf("enqueued %d != sent %d + dropped %d + queued %d", st.Enqueued, st.Sent, st.Dropped, depth)
	}
	if st.Requeued < st.DialFailures || st.DialFailures == 0 {
		t.Fatalf("stats = %+v, want every failed dial to requeue its batch", st)
	}
}

// TestProbeOfALiveConnectionAllocatesNothing: a flusher probes its
// connection before every batch, so the probe is built once per
// connection and a call costs a syscall and no object. Where the
// platform can peek (staleconn_unix.go) it also sees the peer leave.
func TestProbeOfALiveConnectionAllocatesNothing(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	peer, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	dead := tcpnet.NewProbe(conn)
	if allocs := testing.AllocsPerRun(200, func() {
		if dead() {
			t.Fatal("a live connection probed dead")
		}
	}); allocs != 0 {
		t.Fatalf("probing a live connection allocates %.1f/op, want 0", allocs)
	}
	// Data waiting to be read is not a closed connection.
	if _, err := peer.Write([]byte{1}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if dead() {
		t.Fatal("a connection with unread data probed dead")
	}
	_ = peer.Close()
	if runtime.GOOS == "windows" || runtime.GOOS == "plan9" || runtime.GOOS == "js" || runtime.GOOS == "wasip1" {
		return // staleconn_other.go: no peek, the reader's EOF finds it
	}
	_, _ = conn.Read(make([]byte, 1)) // drain, so the FIN is what the peek meets
	deadline := time.Now().Add(5 * time.Second)
	for !dead() {
		if time.Now().After(deadline) {
			t.Fatal("the peer closed and the probe never noticed")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFrameSizesAroundTheReadBuffer round-trips frames that just fit a
// reader's chunk, just do not, and dwarf it, each between small frames
// that share a read with its head or tail.
func TestFrameSizesAroundTheReadBuffer(t *testing.T) {
	a, _ := listen(t)
	b, bs := listen(t)
	rng := rand.New(rand.NewSource(1))
	var want [][]byte
	for _, size := range []int{
		tcpnet.RbufSize - 5, tcpnet.RbufSize - 4, tcpnet.RbufSize - 3, // header included: one short of, exactly, one over the buffer
		tcpnet.RbufSize - 1, tcpnet.RbufSize, tcpnet.RbufSize + 1, 1 << 20,
	} {
		for _, n := range []int{64, size, 64} {
			f := make([]byte, n)
			rng.Read(f)
			want = append(want, f)
		}
	}
	for _, f := range want {
		if err := a.Send(b.LocalAddress(), f); err != nil {
			t.Fatal(err)
		}
	}
	got := bs.wait(t, len(want))
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("frame %d (%d bytes) arrived as %d bytes or with other content", i, len(want[i]), len(got[i]))
		}
	}
}

// fill writes frame i's content: a stream no other frame shares, so that
// a frame overwritten by any other, at any offset, reads wrong.
func fill(buf []byte, i int) {
	rand.New(rand.NewSource(int64(i))).Read(buf)
}

// TestDeliveredFramesAreNeverRewritten is the receive path's ownership
// rule from the receiver's side: every frame is kept as the slice it was
// handed, for as long as the connection goes on reading behind it, and
// all of them still read what was sent once the last has arrived. Sizes
// run from one byte to a few chunks, a run of them ends within five
// bytes either side of a chunk's end, and an append to a kept frame must
// not land in its neighbour.
func TestDeliveredFramesAreNeverRewritten(t *testing.T) {
	a, _ := listen(t)
	b, bs := listen(t)
	rng := rand.New(rand.NewSource(7))
	var sizes []int
	for d := -5; d <= 5; d++ {
		sizes = append(sizes, tcpnet.RbufSize-4+d, 1+rng.Intn(64))
	}
	for len(sizes) < 3000 {
		switch n := rng.Intn(100); {
		case n < 2:
			sizes = append(sizes, tcpnet.RbufSize+rng.Intn(200<<10-tcpnet.RbufSize))
		case n < 10:
			sizes = append(sizes, tcpnet.RbufSize-4-5+rng.Intn(11))
		default:
			sizes = append(sizes, 1+rng.Intn(4<<10))
		}
	}
	buf := make([]byte, 200<<10)
	for i, size := range sizes {
		// Half the default queue in flight: nothing is shed.
		if i >= 512 {
			bs.wait(t, i-512)
		}
		fill(buf[:size], i)
		if err := a.Send(b.LocalAddress(), buf[:size]); err != nil {
			t.Fatal(err)
		}
	}
	got := bs.wait(t, len(sizes))
	want := make([]byte, 200<<10)
	for i, f := range got {
		fill(want[:sizes[i]], i)
		if !bytes.Equal(f, want[:sizes[i]]) {
			t.Fatalf("frame %d of %d (%d bytes) reads %d bytes of something else once the reader has moved on", i, len(got), sizes[i], len(f))
		}
		if grown := append(f, 0xEE); &grown[0] == &f[0] {
			t.Fatalf("frame %d: an append grew it in place, into the chunk behind it", i)
		}
	}
	if st := a.Stats(); st.Dropped != 0 {
		t.Fatalf("the pacing let %d frames be shed", st.Dropped)
	}
}

// lastWords is a connection whose one read returns everything the peer
// sent together with the error that ends it.
type lastWords struct {
	net.Conn
	data []byte
}

func (c *lastWords) Read(p []byte) (int, error) {
	n := copy(p, c.data)
	c.data = c.data[n:]
	return n, io.EOF
}

func (c *lastWords) Close() error { return nil }

// TestFramesThatArriveWithTheErrorAreDelivered: a read may return bytes
// and an error at once, and the whole frames among those bytes are a
// leaving peer's last — its rendezvous disconnect. They reach the
// receiver before the reader exits; the fragment behind them does not.
func TestFramesThatArriveWithTheErrorAreDelivered(t *testing.T) {
	tr, sink := listen(t)
	var stream []byte
	for _, f := range []string{"lease renewal", "", "disconnect"} {
		stream = binary.BigEndian.AppendUint32(stream, uint32(len(f)))
		stream = append(stream, f...)
	}
	stream = append(binary.BigEndian.AppendUint32(stream, 100), "cut short"...)
	tr.ReadConn(&lastWords{data: stream})
	got := sink.wait(t, 3)
	if len(got) != 3 || string(got[0]) != "lease renewal" || len(got[1]) != 0 || string(got[2]) != "disconnect" {
		t.Fatalf("delivered %q", got)
	}
}

// FuzzReadLoopChunking: however a stream of valid frames is cut into
// reads — sizes and cuts are the fuzzer's — the receiver gets the same
// frames in the same order, each still intact when the stream has ended;
// and a header above MaxFrame ends the connection with nothing behind it
// delivered.
func FuzzReadLoopChunking(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 255, 252, 0, 0, 0, 1, 0, 5}, []byte{0, 0, 255, 255, 0, 3}, false)
	f.Add([]byte{0, 255, 250, 0, 0, 9, 3, 0, 0, 0, 0, 64}, []byte{127, 255}, true)
	f.Add([]byte{0, 0, 7}, []byte{}, true)
	f.Fuzz(func(t *testing.T, sizes, cuts []byte, oversize bool) {
		if len(sizes) > 3*48 {
			sizes = sizes[:3*48]
		}
		var stream []byte
		var want [][]byte
		for i := 0; i+3 <= len(sizes); i += 3 {
			frame := make([]byte, (int(sizes[i])<<16|int(sizes[i+1])<<8|int(sizes[i+2]))%(200<<10))
			fill(frame, i)
			want = append(want, frame)
			stream = append(binary.BigEndian.AppendUint32(stream, uint32(len(frame))), frame...)
		}
		if oversize {
			stream = binary.BigEndian.AppendUint32(stream, tcpnet.MaxFrame+1)
			stream = append(binary.BigEndian.AppendUint32(stream, 5), "after"...)
		}

		tr, err := tcpnet.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		var got [][]byte // the reader's until done is closed
		tr.SetReceiver(func(frame []byte) { got = append(got, frame) })
		client, server := net.Pipe()
		done := make(chan struct{})
		go func() {
			tr.ReadConn(server)
			close(done)
		}()
		var werr error
		for k := 0; len(stream) > 0 && werr == nil; k += 2 {
			n := len(stream)
			if len(cuts) >= 2 {
				c := cuts[k%(len(cuts)-1):]
				n = min(n, 1+(int(c[0])<<8|int(c[1])))
			}
			_, werr = client.Write(stream[:n])
			stream = stream[n:]
		}
		if oversize {
			// The reader hangs up by itself, with the stream still open.
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("the reader reads on behind an oversize header")
			}
		} else if werr != nil {
			t.Fatalf("the reader hung up on a valid stream: %v", werr)
		}
		_ = client.Close()
		<-done
		if len(got) != len(want) {
			t.Fatalf("%d frames delivered, %d sent", len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("frame %d (%d bytes) arrived as %d bytes or with other content", i, len(want[i]), len(got[i]))
			}
		}
	})
}

// TestOversizeHeaderDropsConnection: a length above MaxFrame is a
// corrupt or hostile peer. The reader must hang up on the header alone,
// without first setting aside memory for the body it announces.
func TestOversizeHeaderDropsConnection(t *testing.T) {
	b, bs := listen(t)
	for _, size := range []uint32{tcpnet.MaxFrame + 1, 1<<32 - 1} {
		conn, err := net.Dial("tcp", b.LocalAddress().Host())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := conn.Write(binary.BigEndian.AppendUint32(nil, size)); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
			t.Fatalf("header of %d bytes: read = %v, want the connection closed", size, err)
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("header of %d bytes: %d bytes allocated before hanging up", size, grew)
		}
	}
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if len(bs.frames) != 0 {
		t.Fatalf("%d frames delivered from header-only connections", len(bs.frames))
	}
}

// TestReceiveDoesNotAllocatePerFrame: frames are handed to the receiver
// in place, and a reader allocates a chunk per 64 kB received, not per
// frame. The pooled send side is in the measurement too, so the bound
// holds for the whole loopback path.
func TestReceiveDoesNotAllocatePerFrame(t *testing.T) {
	if israce.Enabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	a, _ := listen(t)
	b, err := tcpnet.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() })
	const frames = 1000 // under the queue bound: nothing is shed
	var received atomic.Int64
	done := make(chan struct{}, 1)
	b.SetReceiver(func([]byte) {
		if received.Add(1)%frames == 0 {
			done <- struct{}{}
		}
	})
	frame := bytes.Repeat([]byte{0xAB}, 2048)
	to := b.LocalAddress()
	stream := func() {
		for i := 0; i < frames; i++ {
			if err := a.Send(to, frame); err != nil {
				t.Fatal(err)
			}
		}
		<-done
	}
	stream() // dial, grow the queue and the pool
	if perFrame := testing.AllocsPerRun(5, stream) / frames; perFrame > 0.1 {
		t.Fatalf("%.3f allocations per received frame, want <= 0.1", perFrame)
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

// TestCloseDrainsLiveConnections: what was queued for a host the
// transport is connected to when Close is called still goes out.
func TestCloseDrainsLiveConnections(t *testing.T) {
	a, _ := listen(t)
	b, bs := listen(t)
	if err := a.Send(b.LocalAddress(), []byte("dial")); err != nil {
		t.Fatal(err)
	}
	bs.wait(t, 1) // the connection is up
	const n = 200
	for i := 0; i < n; i++ {
		if err := a.Send(b.LocalAddress(), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.Sent != n+1 {
		t.Fatalf("stats after Close = %+v, want Sent = %d", st, n+1)
	}
	got := bs.wait(t, n+1)
	for i, f := range got[1:] {
		if len(f) != 1 || f[0] != byte(i) {
			t.Fatalf("frame %d = %v", i, f)
		}
	}
}

// TestCloseDoesNotWaitOnStuckHosts: the drain is bounded. A host whose
// kernel buffers are full (the flusher sits in a write with ten seconds
// of deadline left) and a host that is down cost Close its fixed drain
// allowance, not a write or dial timeout.
func TestCloseDoesNotWaitOnStuckHosts(t *testing.T) {
	a, _ := listen(t)
	stalled := stalledPeer(t)
	dead, err := tcpnet.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	down := dead.LocalAddress()
	_ = dead.Close()
	payload := bytes.Repeat([]byte("x"), 256<<10)
	for i := 0; i < 100; i++ {
		_ = a.Send(stalled, payload)
		_ = a.Send(down, payload) // ErrPeerDown once the breaker opens
	}
	waitForStat(t, func(st tcpnet.Stats) bool { return st.DialFailures > 0 && st.Sent > 0 }, a)
	start := time.Now()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Close took %v with one stalled and one dead host", took)
	}
}

// TestCloseWhileSending races Close against senders to several hosts:
// every Send returns, with ErrClosed from some point on, and Close does
// not hang on a queue created or refilled under it.
func TestCloseWhileSending(t *testing.T) {
	a, _ := listen(t)
	var peers []endpoint.Address
	for i := 0; i < 3; i++ {
		b, _ := listen(t)
		peers = append(peers, b.LocalAddress())
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(to endpoint.Address) {
			defer wg.Done()
			frame := bytes.Repeat([]byte{'x'}, 512)
			for {
				if err := a.Send(to, frame); errors.Is(err, tcpnet.ErrClosed) {
					return
				}
			}
		}(peers[g%len(peers)])
	}
	time.Sleep(5 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		_ = a.Close()
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close or a sender hung")
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
	if err := b.RegisterHandler("echo", "", func(v message.View, from endpoint.Address) {
		got <- rx{v.Message(), from}
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
