package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	tps "github.com/tps-p2p/tps"
)

// Every stamp in the bench is nanoseconds since base on the monotonic
// clock; publisher and subscribers share the process, so a latency is a
// plain difference with no skew.
var base = time.Now()

func nowNS() int64 { return int64(time.Since(base)) }

// ackRing bounds the credit window: sequence numbers in flight map to
// distinct slots as long as the window is no larger.
const ackRing = 1024

// loop is the closed-loop load generator: one publisher goroutine that
// may have at most w events not yet delivered to every subscriber. It
// blocks on the credit channel — no timed polling, no sleeping generator
// (a timer wake-up costs more than the path under test).
//
// Why closed: tcpnet sheds the oldest frames of a full 1024-frame queue,
// so an open loop above capacity would measure shedding.
type loop struct {
	w       int
	nsubs   int32
	credits chan struct{} // sized to the window: a send never blocks
	acks    [ackRing]atomic.Int32

	published atomic.Uint64 // events handed to Publish == next sequence number
	delivered atomic.Int64  // subscriber callbacks completed
	first     chan struct{} // closed once an event has reached every subscriber
	firstOnce sync.Once

	stopCh   chan struct{}
	stopOnce sync.Once
	done     chan struct{} // closed when the publisher goroutine has returned
	pubErr   error         // read after done
}

func newLoop(w, nsubs int) *loop {
	l := &loop{
		w: w, nsubs: int32(nsubs),
		credits: make(chan struct{}, w),
		first:   make(chan struct{}),
		stopCh:  make(chan struct{}),
		done:    make(chan struct{}),
	}
	for i := 0; i < w; i++ {
		l.credits <- struct{}{}
	}
	return l
}

// ack records one subscriber's first delivery of seq; the last
// subscriber to ack returns the credit.
func (l *loop) ack(seq uint64) {
	l.delivered.Add(1)
	slot := &l.acks[seq%ackRing]
	if slot.Add(1) == l.nsubs {
		slot.Store(0)
		l.firstOnce.Do(func() { close(l.first) })
		l.credits <- struct{}{}
	}
}

// publish runs the generator until stop, or until limit events when
// limit > 0. It is the only goroutine that publishes.
func (l *loop) publish(c *cluster, pl *payloads, limit uint64) {
	defer close(l.done)
	for limit == 0 || l.published.Load() < limit {
		select {
		case <-l.credits:
		case <-l.stopCh:
			return
		}
		seq := l.published.Load()
		ev := pl.event(seq)
		ev.SentNS = nowNS()
		err := c.pub.intf.Publish(ev)
		if c.pub.tap != nil {
			c.pub.tap.span(spanPublish, ev.SentNS, nowNS(), 0, int64(seq))
		}
		if err != nil {
			l.pubErr = fmt.Errorf("publish %d: %w", seq, err)
			return
		}
		l.published.Add(1)
	}
}

func (l *loop) stop() { l.stopOnce.Do(func() { close(l.stopCh) }) }

// drain stops the generator and waits until every published event has
// reached every subscriber — all w credits are back — or the timeout
// elapses. The loop cannot publish afterwards.
func (l *loop) drain(timeout time.Duration) {
	l.stop()
	<-l.done
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for i := 0; i < l.w; i++ {
		select {
		case <-l.credits:
		case <-timer.C:
			return
		}
	}
}

var errStalled = errors.New("no delivery for 5 s: the closed loop stalled (a lost event never returns its credit)")

// slice is one stretch of the timed window: how long it was, what was
// delivered in it and what CPU the process used.
type slice struct {
	seconds    float64
	deliveries int64
	cpu        time.Duration
}

// sliceLen is how often the watching goroutine wakes. The window's rate
// and CPU cost are medians over these slices, so a stall of a second —
// on a shared machine the host's doing more often than the program's —
// moves one slice, not the result.
const sliceLen = 500 * time.Millisecond

// watch sleeps for d while checking that deliveries keep arriving, and
// returns what each slice of d saw. The main goroutine wakes once per
// slice; it does no other work.
func (l *loop) watch(d time.Duration) ([]slice, error) {
	var slices []slice
	end := time.Now().Add(d)
	last, lastAt, lastCPU := l.delivered.Load(), time.Now(), processCPU()
	progressAt := lastAt
	for {
		left := time.Until(end)
		if left <= 0 {
			return slices, nil
		}
		time.Sleep(min(left, sliceLen))
		select {
		case <-l.done:
			if l.pubErr != nil {
				return slices, l.pubErr
			}
		default:
		}
		cur, now, cpu := l.delivered.Load(), time.Now(), processCPU()
		slices = append(slices, slice{now.Sub(lastAt).Seconds(), cur - last, cpu - lastCPU})
		if cur != last {
			progressAt = now
		} else if now.Sub(progressAt) > 5*time.Second {
			return slices, errStalled
		}
		last, lastAt, lastCPU = cur, now, cpu
	}
}

// sample is one delivery: when the callback ran and how long after the
// Publish call.
type sample struct{ at, lat int64 }

// subscriber is one subscribing peer and the record of what it got.
type subscriber struct {
	*peer
	pl          *payloads
	subscribeAt int64                // stamp taken just before the Subscribe call
	loop        atomic.Pointer[loop] // nil: deliveries are recorded but not acked

	mu        sync.Mutex
	got       []bool   // by sequence number
	samples   []sample // first deliveries, in arrival order
	maxSeq    uint64
	dups      int64 // same sequence number delivered again
	corrupt   int64 // pad CRC or offer fields differ
	reordered int64 // sequence number went backwards
	target    int   // close reached at this many first deliveries (joiners)
	reached   chan struct{}
}

// subscribe registers the subscription. Deliveries are observed by the
// interface's criteria (observe), which turns every event down, so the
// callback registered here never runs; README.md says why.
func (s *subscriber) subscribe() error {
	s.subscribeAt = nowNS()
	if err := s.intf.Subscribe(tps.CallBackFunc[Event](func(Event) error { return nil }), nil); err != nil {
		return fmt.Errorf("%s subscribe: %w", s.name, err)
	}
	return nil
}

// received copies the deliveries recorded so far.
func (s *subscriber) received() []sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]sample(nil), s.samples...)
}

// seqLimit guards the got slice against a corrupt sequence number.
const seqLimit = 1 << 26

// observe is the subscriber's measurement point: the interface's
// criteria, evaluated on each decoded, deduplicated event right before
// the callbacks would run.
func (s *subscriber) observe(ev Event) bool {
	s.handle(ev)
	return false
}

func (s *subscriber) handle(ev Event) {
	now := nowNS()
	ok := ev.Seq < seqLimit && s.pl.intact(ev)
	s.mu.Lock()
	switch {
	case !ok:
		s.corrupt++
	case ev.Seq < uint64(len(s.got)) && s.got[ev.Seq]:
		s.dups++
		ok = false
	default:
		for uint64(len(s.got)) <= ev.Seq {
			s.got = append(s.got, false)
		}
		s.got[ev.Seq] = true
		if len(s.samples) > 0 && ev.Seq < s.maxSeq {
			s.reordered++
		} else {
			s.maxSeq = ev.Seq
		}
		s.samples = append(s.samples, sample{at: now, lat: now - ev.SentNS})
		if len(s.samples) == s.target {
			close(s.reached)
		}
	}
	s.mu.Unlock()
	if !ok {
		return
	}
	if s.tap != nil {
		s.tap.span(spanCallback, now, nowNS(), 0, int64(ev.Seq))
	}
	if l := s.loop.Load(); l != nil {
		l.ack(ev.Seq)
	}
}

// tally is what the subscribers of a run received, summed.
type tally struct {
	arrived, dups, corrupt, reordered int64
}

func (t *tally) add(o tally) {
	t.arrived += o.arrived
	t.dups += o.dups
	t.corrupt += o.corrupt
	t.reordered += o.reordered
}

func tallyOf(subs []*subscriber) tally {
	var t tally
	for _, s := range subs {
		s.mu.Lock()
		t.add(tally{int64(len(s.samples)), s.dups, s.corrupt, s.reordered})
		s.mu.Unlock()
	}
	return t
}
