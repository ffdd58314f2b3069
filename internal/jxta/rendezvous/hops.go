package rendezvous

// hops.go is the hop filter: the exact set of sequences this peer has
// received of every stream it hears, which drops a propagated frame it
// has already had, and the numbering of the streams this peer injects.

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/message"
	"github.com/tps-p2p/tps/internal/obs"
)

// The hop filter's bounds. They are constants: what each forgets is
// counted (forgotten), and a frame of a stream, or below a run, the
// filter forgot is delivered again — at least once, never lost.
const (
	// maxRuns is the most runs a stream keeps; at the cap its lowest run
	// is forgotten.
	maxRuns = 1024
	// maxStreams is the most streams the filter keeps, maxStreams /
	// hopStripes in a stripe; at the cap a stripe forgets its least
	// recently heard stream.
	maxStreams = 4096
	// streamIdle is how long a stream that sends nothing is kept,
	// counted in ticks of the maintenance loop (hopFilter.idle).
	streamIdle = 2 * time.Minute
	// hopStripes is the stripe count.
	hopStripeBits = 4
	hopStripes    = 1 << hopStripeBits
	// initialRuns is the room a new stream's run list starts with.
	initialRuns = 4
)

// run is a range of sequences received, lo to hi inclusive.
type run struct{ lo, hi uint64 }

// streamKey names a stream: its publisher and the nonce it drew for it.
// It is 24 bytes and has no padding, so the map hashes it as memory.
type streamKey struct {
	nonce uint64
	src   [16]byte
}

// hopStream is what the filter keeps of one stream: its runs, sorted,
// disjoint and never adjacent, and its place in its stripe's recency
// list.
type hopStream struct {
	key        streamKey
	runs       []run
	tick       uint64 // the stripe's tick at the stream's last frame
	prev, next *hopStream
}

// observe records seq in the stream's runs and reports whether it is
// new, and how many runs the stream forgot to make room for it (0 or 1).
// An in-order sequence extends the last run; any other is found by
// binary search, and fills a hole, widens a run or starts one. Once the
// stream has room for its runs nothing allocates.
func (st *hopStream) observe(seq uint64) (fresh bool, forgot int) {
	n := len(st.runs)
	if n > 0 && seq == st.runs[n-1].hi+1 {
		st.runs[n-1].hi = seq
		return true, 0
	}
	i, _ := slices.BinarySearchFunc(st.runs, seq, func(r run, seq uint64) int {
		switch {
		case r.hi < seq:
			return -1
		case r.lo > seq:
			return 1
		}
		return 0
	})
	if i < n && st.runs[i].lo <= seq {
		return false, 0
	}
	left := i > 0 && st.runs[i-1].hi+1 == seq
	right := i < n && st.runs[i].lo == seq+1
	switch {
	case left && right:
		st.runs[i-1].hi = st.runs[i].hi
		st.runs = slices.Delete(st.runs, i, i+1)
	case left:
		st.runs[i-1].hi = seq
	case right:
		st.runs[i].lo = seq
	default:
		if n == maxRuns {
			// The lowest run goes: the new one, when it would be it.
			if i == 0 {
				return true, 1
			}
			st.runs = slices.Delete(st.runs, 0, 1)
			i, forgot = i-1, 1
		}
		st.runs = slices.Insert(st.runs, i, run{seq, seq})
	}
	return true, forgot
}

// hopStripe is one lock stripe of the filter: its streams, a recency
// list of them (most recent first), its tick and its counters, which
// the stripe's lock guards, so counting costs no atomic.
type hopStripe struct {
	mu         sync.Mutex
	streams    map[streamKey]*hopStream
	head, tail *hopStream
	tick       uint64

	observed   int64 // numbered frames checked
	duplicates int64 // numbered frames found received
	forgotten  int64 // runs forgotten: at the run cap, or with their stream
}

// touch makes st the stripe's most recent stream.
func (p *hopStripe) touch(st *hopStream) {
	if p.head == st {
		return
	}
	p.unlink(st)
	st.next = p.head
	if p.head != nil {
		p.head.prev = st
	}
	p.head = st
	if p.tail == nil {
		p.tail = st
	}
}

// unlink takes st out of the recency list.
func (p *hopStripe) unlink(st *hopStream) {
	if st.prev != nil {
		st.prev.next = st.next
	} else if p.head == st {
		p.head = st.next
	}
	if st.next != nil {
		st.next.prev = st.prev
	} else if p.tail == st {
		p.tail = st.prev
	}
	st.prev, st.next = nil, nil
}

// forget drops st and counts its runs forgotten.
func (p *hopStripe) forget(st *hopStream) {
	p.unlink(st)
	delete(p.streams, st.key)
	p.forgotten += int64(len(st.runs))
}

// hopFilter is the hop filter: every propagated frame this peer injects
// or receives passes it once, keyed by its publisher, stream and
// sequence (jid.NumberedMessage). It is striped by stream, reads no
// clock per frame and allocates nothing once a stream exists.
type hopFilter struct {
	stripes [hopStripes]hopStripe
	// idle is streamIdle in ticks, rounded up: a stream no frame came
	// for in more ticks than that is forgotten.
	idle       uint64
	unnumbered atomic.Int64 // frames whose ID is not numbered, let through
}

// newHopFilter returns a filter ticked every interval.
func newHopFilter(interval time.Duration) *hopFilter {
	f := &hopFilter{idle: uint64(max(1, (streamIdle+interval-1)/interval))}
	for i := range f.stripes {
		f.stripes[i].streams = make(map[streamKey]*hopStream)
	}
	return f
}

// observe records the stream sequence of message id from src and
// reports whether the frame is new. A frame whose ID is not numbered,
// which only a log written before IDs were numbered holds, passes
// unchecked.
func (f *hopFilter) observe(id, src jid.ID) bool {
	nonce, seq, ok := id.Numbered()
	if !ok {
		f.unnumbered.Add(1)
		return true
	}
	key := streamKey{nonce: nonce, src: src.UUID()}
	p := f.stripe(nonce)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.observed++
	// The stream heard last heads the recency list: a run of frames of
	// one stream skips the map.
	st := p.head
	if st == nil || st.key != key {
		st = p.streams[key]
	}
	if st == nil {
		if len(p.streams) >= maxStreams/hopStripes {
			p.forget(p.tail)
		}
		st = &hopStream{key: key, runs: make([]run, 0, initialRuns)}
		p.streams[key] = st
	}
	p.touch(st)
	st.tick = p.tick
	fresh, forgot := st.observe(seq)
	p.forgotten += int64(forgot)
	if !fresh {
		p.duplicates++
	}
	return fresh
}

// stripe returns the stripe of the streams of nonce.
func (f *hopFilter) stripe(nonce uint64) *hopStripe {
	return &f.stripes[(nonce*0x9e3779b97f4a7c15)>>(64-hopStripeBits)]
}

// expire advances every stripe's tick and forgets the streams idle for
// more than f.idle ticks: the maintenance loop calls it on each of its
// ticks.
func (f *hopFilter) expire() {
	for i := range f.stripes {
		p := &f.stripes[i]
		p.mu.Lock()
		p.tick++
		for p.tail != nil && p.tick-p.tail.tick > f.idle {
			p.forget(p.tail)
		}
		p.mu.Unlock()
	}
}

// Snapshot implements obs.Provider: the filter reports as "seen", the
// name of the cache it replaced, so that a per-delivery reading of its
// counters stays comparable.
func (f *hopFilter) Snapshot() obs.Snapshot {
	var observed, duplicates, forgotten int64
	var streams, runs int
	for i := range f.stripes {
		p := &f.stripes[i]
		p.mu.Lock()
		observed += p.observed
		duplicates += p.duplicates
		forgotten += p.forgotten
		streams += len(p.streams)
		for st := p.head; st != nil; st = st.next {
			runs += len(st.runs)
		}
		p.mu.Unlock()
	}
	unnumbered := f.unnumbered.Load()
	return obs.Snapshot{
		Name: "seen",
		// 2: a set of runs per stream; the entries gauge and the expired
		// and evicted counters of the ID cache are gone.
		Version: 2,
		Counters: map[string]int64{
			"observed":   observed + unnumbered,
			"duplicates": duplicates,
			"forgotten":  forgotten,
			"unnumbered": unnumbered,
		},
		Gauges: map[string]float64{
			"streams": float64(streams),
			"runs":    float64(runs),
		},
	}
}

// outStream is a stream this peer injects into one group: the nonce it
// drew at the stream's first message and the last sequence it gave.
type outStream struct {
	nonce uint64
	last  atomic.Uint64
}

// Number gives msg the next ID of this peer's stream in group, unless
// it already carries an ID of that stream: a message sent twice into a
// group keeps one number, and is one message to every hop filter. A
// group's stream starts at the first message of the service's lifetime
// with a fresh nonce, so a peer that restarts under its old ID never
// reuses a number. Propagate numbers what it is given; a layer that
// reads the ID before it propagates — to sample for tracing — numbers
// first.
func (s *Service) Number(msg *message.Message, group string) {
	v, ok := s.out.Load(group)
	if !ok {
		v, _ = s.out.LoadOrStore(group, &outStream{nonce: jid.NewStream()})
	}
	st := v.(*outStream)
	if nonce, _, ok := msg.ID.Numbered(); ok && nonce == st.nonce {
		return
	}
	msg.ID = jid.NumberedMessage(st.nonce, st.last.Add(1))
}

// HopFilter returns the hop filter's statistics provider, which a
// platform registers as "seen".
func (s *Service) HopFilter() obs.Provider { return s.hops }
