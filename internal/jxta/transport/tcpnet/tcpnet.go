// Package tcpnet is a real TCP transport for the endpoint layer, using
// length-prefixed frames over persistent connections. It serves the
// "tcp" address scheme ("tcp://host:port").
//
// Sending is asynchronous and failure-aware: each destination host gets
// a bounded outbound queue drained by its own flusher goroutine, so one
// stalled or dead peer sheds its own queue (drop-oldest) instead of
// head-of-line-blocking every publisher. Dials are bounded by a timeout,
// writes by a deadline, and redials back off exponentially; a host that
// keeps failing opens a circuit breaker that fails sends fast until the
// backoff cools down. Stats exposes what was shed and why.
//
// A wakeup, not a frame, is the unit of kernel work. A flusher takes
// everything queued for its host (up to maxBatchFrames / maxBatchBytes)
// and writes it with one writev under one liveness probe and one
// deadline; a reader pulls whatever the socket holds into a chunk and
// hands the receiver slices of it, so a burst of frames costs one read.
// A chunk is filled once and never written again: the receiver owns
// every frame it is handed (see SetReceiver), and a chunk goes when the
// last frame cut from it does.
package tcpnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/obs"
	"github.com/tps-p2p/tps/internal/obs/hist"
	"github.com/tps-p2p/tps/internal/retry"
)

// Scheme is the address scheme served by this transport.
const Scheme = "tcp"

// MaxFrame bounds a single frame; larger frames indicate corruption or a
// hostile peer and cause the connection to drop.
const MaxFrame = 32 << 20

// Defaults substituted for zero Config fields.
const (
	DefaultDialTimeout  = 5 * time.Second
	DefaultWriteTimeout = 10 * time.Second
	DefaultQueueLen     = 1024
)

// One flush writes at most this much, so WriteTimeout still bounds a
// bounded write. A frame larger than maxBatchBytes travels alone.
const (
	maxBatchFrames = 64
	maxBatchBytes  = 256 << 10
)

// rbufSize is the chunk a reader fills and cuts frames from. A frame
// larger than a chunk, header included, gets one of exactly its size.
const rbufSize = 64 << 10

// closeDrain bounds, in total, how long Close lets flushers finish
// writing what is already queued for hosts with a live connection.
const closeDrain = 50 * time.Millisecond

// Errors.
var (
	// ErrClosed is returned by Send after Close.
	ErrClosed = errors.New("tcpnet: transport closed")
	// ErrPeerDown is returned by Send while a host's circuit breaker is
	// open: the flusher failed to reach the peer and is backing off, so
	// enqueuing more frames would only shed them later.
	ErrPeerDown = errors.New("tcpnet: peer unreachable")
)

// Config tunes the transport's failure behaviour. The zero value uses
// the defaults above.
type Config struct {
	// DialTimeout bounds each connection attempt.
	DialTimeout time.Duration
	// WriteTimeout bounds each flush (one write of at most 64 frames /
	// 256 kB); a peer that stops reading long enough for the kernel
	// buffers to fill fails the write instead of wedging the flusher
	// forever.
	WriteTimeout time.Duration
	// QueueLen bounds each host's outbound queue in frames. When full,
	// the oldest frame is shed (best-effort semantics: new data beats
	// stale data) and counted in Stats.Dropped.
	QueueLen int
	// Backoff shapes the redial curve after dial or write failures.
	Backoff retry.Policy
}

// Stats is a snapshot of transport activity.
type Stats struct {
	Enqueued      int64 // frames accepted into an outbound queue
	Sent          int64 // frames written to a connection
	Dropped       int64 // frames shed from a full queue (oldest first)
	Requeued      int64 // frames put back after a dial/write failure
	FailFast      int64 // sends rejected while a host breaker was open
	DialFailures  int64 // connection attempts that failed
	WriteFailures int64 // flushes whose write failed or timed out
	Redials       int64 // reconnects after an established conn died
	Writes        int64 // writev calls; Sent ÷ Writes is frames per flush
	Reads         int64 // socket reads; frames received ÷ Reads is frames per read
}

type tcpCounters struct {
	enqueued      atomic.Int64
	sent          atomic.Int64
	dropped       atomic.Int64
	requeued      atomic.Int64
	failFast      atomic.Int64
	dialFailures  atomic.Int64
	writeFailures atomic.Int64
	redials       atomic.Int64
	writes        atomic.Int64
	reads         atomic.Int64
}

// wbufPool recycles the length-prefixed write buffers so steady-state
// sending does not allocate one per frame. Queued frames hold pooled
// buffers; they return to the pool once written or shed.
var wbufPool = sync.Pool{New: func() any { return new([]byte) }}

// Transport is a TCP-backed endpoint transport.
type Transport struct {
	ln    net.Listener
	local endpoint.Address // ln's address, formatted once: every frame carries it
	cfg   Config
	stats tcpCounters
	// waitHist times enqueue → flusher pickup per frame (queue wait);
	// recording is alloc-free, so it is always on.
	waitHist *hist.Hist

	// recv and closed are read once per received frame by every reader,
	// so they are atomics: no per-frame step takes mu.
	recv   atomic.Pointer[func([]byte)]
	closed atomic.Bool // set under mu, so queue creation cannot race Close

	mu       sync.RWMutex
	queues   map[string]*hostq // per-destination outbound queues
	accepted map[net.Conn]struct{}
	stop     chan struct{}
	wg       sync.WaitGroup
}

var _ endpoint.Transport = (*Transport)(nil)

// Listen starts a transport accepting on addr (e.g. "127.0.0.1:0") with
// default configuration.
func Listen(addr string) (*Transport, error) {
	return ListenConfig(addr, Config{})
}

// ListenConfig starts a transport with explicit failure tuning.
func ListenConfig(addr string, cfg Config) (*Transport, error) {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = DefaultDialTimeout
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = DefaultWriteTimeout
	}
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = DefaultQueueLen
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: listen %s: %w", addr, err)
	}
	t := &Transport{
		ln:       ln,
		local:    endpoint.MakeAddress(Scheme, ln.Addr().String()),
		cfg:      cfg,
		waitHist: hist.New(),
		queues:   make(map[string]*hostq),
		accepted: make(map[net.Conn]struct{}),
		stop:     make(chan struct{}),
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Scheme implements endpoint.Transport.
func (t *Transport) Scheme() string { return Scheme }

// LocalAddress implements endpoint.Transport.
func (t *Transport) LocalAddress() endpoint.Address { return t.local }

// SetReceiver implements endpoint.Transport. frame is recv's to keep: a
// capped slice of a read chunk that no reader writes again. Frames that
// arrived together share a chunk, so keeping a few bytes of one keeps
// all 64 kB: copy what is kept for long.
func (t *Transport) SetReceiver(recv func(frame []byte)) {
	t.recv.Store(&recv)
}

// Stats returns a snapshot of the transport counters.
func (t *Transport) Stats() Stats {
	return Stats{
		Enqueued:      t.stats.enqueued.Load(),
		Sent:          t.stats.sent.Load(),
		Dropped:       t.stats.dropped.Load(),
		Requeued:      t.stats.requeued.Load(),
		FailFast:      t.stats.failFast.Load(),
		DialFailures:  t.stats.dialFailures.Load(),
		WriteFailures: t.stats.writeFailures.Load(),
		Redials:       t.stats.redials.Load(),
		Writes:        t.stats.writes.Load(),
		Reads:         t.stats.reads.Load(),
	}
}

// Snapshot implements obs.Provider.
func (t *Transport) Snapshot() obs.Snapshot {
	hosts, depth := t.queueTotals()
	return obs.Snapshot{
		Name:    "tcpnet",
		Version: 1,
		Counters: map[string]int64{
			"enqueued":       t.stats.enqueued.Load(),
			"sent":           t.stats.sent.Load(),
			"dropped":        t.stats.dropped.Load(),
			"requeued":       t.stats.requeued.Load(),
			"fail_fast":      t.stats.failFast.Load(),
			"dial_failures":  t.stats.dialFailures.Load(),
			"write_failures": t.stats.writeFailures.Load(),
			"redials":        t.stats.redials.Load(),
			"writes":         t.stats.writes.Load(),
			"reads":          t.stats.reads.Load(),
		},
		Gauges: map[string]float64{
			"hosts":       float64(hosts),
			"queue_depth": float64(depth),
		},
		Hists: map[string]hist.Snapshot{
			"queue_wait_us": t.waitHist.Snapshot(),
		},
	}
}

// queueTotals counts the live outbound queues and the frames waiting in
// them across all destinations.
func (t *Transport) queueTotals() (hosts, depth int) {
	t.mu.RLock()
	qs := make([]*hostq, 0, len(t.queues))
	for _, q := range t.queues {
		qs = append(qs, q)
	}
	t.mu.RUnlock()
	for _, q := range qs {
		q.mu.Lock()
		n := len(q.frames) - q.head
		q.mu.Unlock()
		hosts++
		depth += n
	}
	return hosts, depth
}

// QueueDepth reports how many frames are waiting for the given host —
// observability for tests and the admin surface.
func (t *Transport) QueueDepth(host string) int {
	t.mu.RLock()
	q := t.queues[host]
	t.mu.RUnlock()
	if q == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.frames) - q.head
}

// Send implements endpoint.Transport. It copies the frame into the
// destination host's bounded queue and returns: delivery is asynchronous
// and best-effort. Send fails fast only when the transport is closed,
// the frame is oversized, or the host's circuit breaker is open after
// repeated dial/write failures.
func (t *Transport) Send(to endpoint.Address, frame []byte) error {
	if len(frame) > MaxFrame {
		return fmt.Errorf("tcpnet: frame of %d bytes exceeds limit", len(frame))
	}
	if t.closed.Load() {
		return ErrClosed
	}
	host := to.Host()
	t.mu.RLock()
	q := t.queues[host]
	t.mu.RUnlock()
	if q == nil {
		var err error
		if q, err = t.newQueue(host); err != nil {
			return err
		}
	}
	return q.enqueue(frame)
}

// newQueue returns host's queue, creating it and starting its flusher on
// the first send to that host.
func (t *Transport) newQueue(host string) (*hostq, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed.Load() {
		return nil, ErrClosed
	}
	q, ok := t.queues[host]
	if !ok {
		q = newHostq(t, host)
		t.queues[host] = q
		t.wg.Add(1)
		go q.flush()
	}
	return q, nil
}

// hostq is one destination's bounded outbound queue plus the connection
// its flusher currently holds.
type hostq struct {
	t    *Transport
	host string
	done chan struct{} // closed when the flusher has exited

	mu        sync.Mutex
	cond      *sync.Cond
	frames    []qframe // pooled, length-prefixed buffers; FIFO from head
	head      int
	conn      net.Conn  // flusher-owned; tracked here so Close can kill it
	downUntil time.Time // breaker: enqueue fails fast until then
	closed    bool      // no new frames; the flusher leaves once the queue is empty

	// Flusher-only scratch, kept across flushes so a batch allocates
	// nothing: the frames taken and the writev vector over them.
	batch []qframe
	iov   [][]byte
	bufs  net.Buffers
}

// qframe is one queued outbound frame: the pooled buffer plus its
// enqueue instant, so take can record how long it waited. The timestamp
// rides the existing slice — amortized growth only, no per-frame
// allocation.
type qframe struct {
	bp   *[]byte
	atNS int64
}

func newHostq(t *Transport, host string) *hostq {
	q := &hostq{t: t, host: host, done: make(chan struct{})}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// enqueue copies frame into a pooled length-prefixed buffer and appends
// it, shedding the oldest frame when the queue is full.
func (q *hostq) enqueue(frame []byte) error {
	bp := wbufPool.Get().(*[]byte)
	buf := *bp
	if need := 4 + len(frame); cap(buf) < need {
		buf = make([]byte, need)
	} else {
		buf = buf[:need]
	}
	binary.BigEndian.PutUint32(buf, uint32(len(frame)))
	copy(buf[4:], frame)
	*bp = buf

	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		wbufPool.Put(bp)
		return ErrClosed
	}
	if !q.downUntil.IsZero() && time.Now().Before(q.downUntil) {
		q.mu.Unlock()
		wbufPool.Put(bp)
		q.t.stats.failFast.Add(1)
		return fmt.Errorf("%w: %s", ErrPeerDown, q.host)
	}
	if len(q.frames)-q.head >= q.t.cfg.QueueLen {
		q.shedOldest()
	}
	if q.head > 0 && len(q.frames) == cap(q.frames) {
		// Reuse the slots take and shedOldest left behind the head
		// instead of growing past them.
		n := copy(q.frames, q.frames[q.head:])
		clear(q.frames[n:])
		q.frames, q.head = q.frames[:n], 0
	}
	q.frames = append(q.frames, qframe{bp: bp, atNS: time.Now().UnixNano()})
	q.cond.Signal()
	q.mu.Unlock()
	q.t.stats.enqueued.Add(1)
	return nil
}

// shedOldest drops the frame at the head of a non-empty queue. The
// caller holds q.mu.
func (q *hostq) shedOldest() {
	wbufPool.Put(q.frames[q.head].bp)
	q.frames[q.head] = qframe{}
	q.head++
	q.t.stats.dropped.Add(1)
}

// take blocks until frames are queued and moves as many as one flush may
// write (maxBatchFrames, maxBatchBytes, always at least one) into
// q.batch. It reports false when the queue is closed and drained.
func (q *hostq) take() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.head >= len(q.frames) && !q.closed {
		q.cond.Wait()
	}
	if q.head >= len(q.frames) {
		return false
	}
	now := time.Now().UnixNano()
	q.batch = q.batch[:0]
	for size := 0; q.head < len(q.frames) && len(q.batch) < maxBatchFrames; q.head++ {
		f := q.frames[q.head]
		if size += len(*f.bp); size > maxBatchBytes && len(q.batch) > 0 {
			break
		}
		q.frames[q.head] = qframe{}
		q.batch = append(q.batch, f)
		q.t.waitHist.Observe(time.Duration(now - f.atNS))
	}
	if q.head == len(q.frames) {
		q.frames, q.head = q.frames[:0], 0
	}
	return true
}

// recycle returns written or abandoned frames' buffers to the pool.
func recycle(frames []qframe) {
	for _, f := range frames {
		wbufPool.Put(f.bp)
	}
}

// requeue puts unsent frames back at the front, in order, so ordering
// survives a redial. If the queue refilled meanwhile, the oldest of them
// are shed and counted so the queue still holds at most QueueLen. A
// closed queue has no redial to wait for and drops them.
func (q *hostq) requeue(frames []qframe) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		recycle(frames)
		return
	}
	if over := len(frames) + len(q.frames) - q.head - q.t.cfg.QueueLen; over > 0 {
		recycle(frames[:over])
		frames = frames[over:]
		q.t.stats.dropped.Add(int64(over))
	}
	// Re-stamp on requeue: the frames start a fresh queue wait behind the
	// redial, and the time they already waited was recorded at take.
	now := time.Now().UnixNano()
	for i := range frames {
		frames[i].atNS = now
	}
	if q.head >= len(frames) {
		q.head -= len(frames)
		copy(q.frames[q.head:], frames)
	} else {
		merged := make([]qframe, 0, len(frames)+len(q.frames)-q.head)
		merged = append(append(merged, frames...), q.frames[q.head:]...)
		q.frames, q.head = merged, 0
	}
	q.t.stats.requeued.Add(int64(len(frames)))
}

// backoff opens the breaker for the failure count's backoff delay and
// sleeps it off. It reports false when the transport shut down mid-wait.
func (q *hostq) backoff(fails int) bool {
	d := q.t.cfg.Backoff.Backoff(fails)
	q.mu.Lock()
	if !q.closed {
		q.downUntil = time.Now().Add(d)
	}
	q.mu.Unlock()
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-q.t.stop:
		return false
	}
}

func (q *hostq) clearDown() {
	q.mu.Lock()
	q.downUntil = time.Time{}
	q.mu.Unlock()
}

// setConn publishes the flusher's connection for Close teardown.
func (q *hostq) setConn(c net.Conn) bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		_ = c.Close()
		return false
	}
	q.conn = c
	q.mu.Unlock()
	return true
}

func (q *hostq) clearConn(c net.Conn) {
	q.mu.Lock()
	if q.conn == c {
		q.conn = nil
	}
	q.mu.Unlock()
	_ = c.Close()
}

// beginClose stops the queue taking frames. With a live connection the
// flusher keeps writing what is already queued and exits when it is
// drained; with none (never dialed, or redialing behind an open breaker)
// there is nothing a bounded drain could deliver, so the queue is
// emptied now.
func (q *hostq) beginClose() {
	q.mu.Lock()
	q.closed = true
	live := q.conn != nil
	q.cond.Broadcast()
	q.mu.Unlock()
	if !live {
		q.close()
	}
}

// close shuts the queue for good: queued buffers return to the pool, the
// flusher wakes and exits, the connection dies.
func (q *hostq) close() {
	q.mu.Lock()
	q.closed = true
	recycle(q.frames[q.head:])
	q.frames = nil
	q.head = 0
	c := q.conn
	q.conn = nil
	q.cond.Broadcast()
	q.mu.Unlock()
	if c != nil {
		_ = c.Close()
	}
}

// flush is the per-host sender: it drains the queue over one connection,
// a batch per wakeup — one liveness probe, one deadline, one writev —
// dialing with a timeout, redialing with capped exponential backoff, and
// keeping per-(sender,receiver) FIFO order by requeueing what a failed
// write left unsent.
func (q *hostq) flush() {
	defer q.t.wg.Done()
	defer close(q.done)
	var conn net.Conn
	var dead func() bool // conn's liveness probe, built once per connection
	fails := 0
	for q.take() {
		// A cached connection whose peer restarted looks writable but
		// eats frames; the non-blocking peek detects the dead socket
		// synchronously so the batch goes over a fresh connection. See
		// staleconn_unix.go for the trade-off discussion.
		if conn != nil && dead() {
			q.clearConn(conn)
			conn = nil
			q.t.stats.redials.Add(1)
		}
		if conn == nil {
			if q.t.closed.Load() {
				// Close drains live connections only: it never dials.
				recycle(q.batch)
				return
			}
			c, err := net.DialTimeout("tcp", q.host, q.t.cfg.DialTimeout)
			if err != nil {
				q.t.stats.dialFailures.Add(1)
				fails++
				q.requeue(q.batch)
				if !q.backoff(fails) {
					return
				}
				continue
			}
			if !q.setConn(c) {
				recycle(q.batch)
				return
			}
			conn, dead = c, newProbe(c)
			// Frames can flow back on the outbound connection too.
			q.t.wg.Add(1)
			go q.t.readLoop(c, func() { q.clearConn(c) })
		}
		sent, err := q.writeBatch(conn)
		q.t.stats.sent.Add(int64(sent))
		recycle(q.batch[:sent])
		if err != nil {
			q.t.stats.writeFailures.Add(1)
			q.clearConn(conn)
			conn = nil
			fails++
			q.requeue(q.batch[sent:])
			if !q.backoff(fails) {
				return
			}
			continue
		}
		if fails > 0 {
			fails = 0
			q.clearDown()
		}
	}
}

// writeBatch writes q.batch to conn with one writev under one deadline
// (the next flush re-arms it, so it is never cleared) and reports how
// many frames went out whole. After an error, the partly written frame
// and everything behind it are unsent: the receiver discards the
// fragment when this connection closes.
func (q *hostq) writeBatch(conn net.Conn) (sent int, err error) {
	q.iov = q.iov[:0]
	for _, f := range q.batch {
		q.iov = append(q.iov, *f.bp)
	}
	// WriteTo consumes the vector it is called on, so it gets a copy of
	// the slice header and q.iov keeps the backing array for next time.
	q.bufs = q.iov
	_ = conn.SetWriteDeadline(time.Now().Add(q.t.cfg.WriteTimeout))
	n, err := q.bufs.WriteTo(conn)
	q.t.stats.writes.Add(1)
	if err == nil {
		return len(q.batch), nil
	}
	for _, f := range q.batch {
		if n -= int64(len(*f.bp)); n < 0 {
			break
		}
		sent++
	}
	return sent, err
}

func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		// Track accepted connections: Close must tear them down too, or
		// their blocked readers would keep the transport alive forever.
		t.mu.Lock()
		if t.closed.Load() {
			t.mu.Unlock()
			_ = conn.Close()
			return
		}
		t.accepted[conn] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(conn, func() {
			t.mu.Lock()
			delete(t.accepted, conn)
			t.mu.Unlock()
			_ = conn.Close()
		})
	}
}

// readLoop delivers conn's inbound frames to the receiver. One read per
// wakeup takes whatever the socket holds — header, body and every
// further frame behind them — into the current chunk, and each whole
// frame is handed out as a slice of it. Bytes handed out are never
// written again: the chunk is filled front to back once, and when the
// next frame does not fit what is left of it the reader moves to a fresh
// one, taking along only the piece of that frame it already has.
func (t *Transport) readLoop(conn net.Conn, onExit func()) {
	defer t.wg.Done()
	defer onExit()
	chunk := make([]byte, rbufSize)
	r, w := 0, 0 // chunk[:r] is delivered, chunk[r:w] read and not yet a whole frame
	var err error
	for {
		need := 4 // bytes of chunk the frame at r takes, as far as is known
		if w-r >= 4 {
			size := binary.BigEndian.Uint32(chunk[r:])
			if size > MaxFrame {
				return // corrupt or hostile; drop the connection
			}
			if need += int(size); w-r >= need {
				t.deliver(chunk[r+4 : r+need : r+need])
				r += need
				continue
			}
		}
		if err != nil {
			return // behind the whole frames that came with the error
		}
		if r+need > len(chunk) {
			next := make([]byte, max(rbufSize, need))
			w = copy(next, chunk[r:w])
			chunk, r = next, 0
		}
		var n int
		n, err = conn.Read(chunk[w:])
		t.stats.reads.Add(1)
		w += n
	}
}

// deliver hands one inbound frame to the receiver. A closing transport
// still reads, so its peers' writes do not fail while Close drains, but
// delivers nothing.
func (t *Transport) deliver(frame []byte) {
	if recv := t.recv.Load(); recv != nil && !t.closed.Load() {
		(*recv)(frame)
	}
}

// Close implements endpoint.Transport. It refuses new sends, stops the
// listener, gives flushers with a live connection closeDrain in total to
// write what is already queued (a leaving peer's last frames, such as
// the rendezvous disconnect, reach the wire), then drops whatever is
// left, closes all connections and waits for flusher and reader
// goroutines to exit. It never dials and never waits on a host that is
// down.
func (t *Transport) Close() error {
	t.mu.Lock()
	if t.closed.Load() {
		t.mu.Unlock()
		return nil
	}
	t.closed.Store(true)
	queues := make([]*hostq, 0, len(t.queues))
	for _, q := range t.queues {
		queues = append(queues, q)
	}
	t.queues = map[string]*hostq{}
	accepted := make([]net.Conn, 0, len(t.accepted))
	for c := range t.accepted {
		accepted = append(accepted, c)
	}
	t.mu.Unlock()

	close(t.stop) // flushers sleeping off a backoff leave at once
	err := t.ln.Close()
	for _, q := range queues {
		q.beginClose()
	}
	drain := time.NewTimer(closeDrain)
	defer drain.Stop()
wait:
	for _, q := range queues {
		select {
		case <-q.done:
		case <-drain.C:
			break wait
		}
	}
	for _, q := range queues {
		q.close()
	}
	for _, c := range accepted {
		_ = c.Close()
	}
	t.wg.Wait()
	return err
}
