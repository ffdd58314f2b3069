package rendezvous

import (
	"encoding/binary"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tps-p2p/tps/internal/israce"
	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/message"
)

// hopRig is a service whose hop filter a test feeds frames by hand:
// an edge reading group "g", counting what the filter lets through.
type hopRig struct {
	s         *Service
	delivered int
}

func newHopRig(t testing.TB, id uint64) *hopRig {
	t.Helper()
	ep := endpoint.New(jid.FromSeed(jid.KindPeer, id))
	s, err := New(ep, Config{Role: RoleEdge})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	r := &hopRig{s: s}
	if err := s.Read("g", DeliverFunc(func(*message.Message, endpoint.Address) { r.delivered++ })); err != nil {
		t.Fatal(err)
	}
	return r
}

// frame is the message of a propagated frame of group "g" from src
// with the given ID; view makes the frame of it that handleProp reads.
func frame(src, id jid.ID) *message.Message {
	m := message.New(src)
	m.ID = id
	m.AddString(elemNS, elemOp, opProp)
	m.AddString(elemNS, elemDSvc, "app")
	m.AddString(elemNS, elemDParam, "g")
	return m
}

// view is m as handleProp receives it: a view of its frame.
func view(t testing.TB, m *message.Message) *message.View {
	t.Helper()
	frame, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	v, err := message.NewView(frame)
	if err != nil {
		t.Fatal(err)
	}
	return &v
}

// publish numbers a frame of group "g" the way pub's Propagate does.
func publish(pub *Service) *message.Message {
	m := frame(pub.ep.PeerID(), jid.NewMessage())
	pub.Number(m, "g")
	return m
}

func (r *hopRig) counter(name string) int64 { return r.s.hops.Snapshot().Counters[name] }

// TestHopFilterIsExactPastTheOldWindow: the hop filter keeps every
// sequence of a stream, however many came after it. 70 000 fresh frames
// of one stream, more than the 65 536 IDs the cache it replaced held,
// then a copy of the first: the copy is dropped.
func TestHopFilterIsExactPastTheOldWindow(t *testing.T) {
	sub := newHopRig(t, 1)
	pub := newHopRig(t, 2).s
	const n = 70_000
	var first *message.Message
	for i := range n {
		m := publish(pub)
		if i == 0 {
			first = frame(m.Src, m.ID)
		}
		sub.s.handleProp(view(t, m), "")
	}
	sub.s.handleProp(view(t, first), "")
	if sub.delivered != n {
		t.Fatalf("%d frames delivered, want %d: the copy of the first got through", sub.delivered, n)
	}
	if d, runs := sub.counter("duplicates"), sub.s.hops.Snapshot().Gauges["runs"]; d != 1 || runs != 1 {
		t.Fatalf("duplicates %d, runs %v; want 1 and 1", d, runs)
	}
}

// TestRestartedPublisherStartsANewStream: a publisher that restarts
// under the same peer ID (a durable rendezvous keeps its ID) draws a
// new stream, so its first event is no copy of the first event of its
// last life, and is delivered.
func TestRestartedPublisherStartsANewStream(t *testing.T) {
	sub := newHopRig(t, 1)
	before := newHopRig(t, 2).s
	sub.s.handleProp(view(t, publish(before)), "")
	before.Close()
	after := newHopRig(t, 2).s
	m := publish(after)
	if _, seq, _ := m.ID.Numbered(); seq != 1 {
		t.Fatalf("the restarted publisher's first sequence is %d, want 1", seq)
	}
	sub.s.handleProp(view(t, m), "")
	if sub.delivered != 2 {
		t.Fatalf("%d deliveries, want 2: the restarted publisher's first event was taken for a copy", sub.delivered)
	}
}

// TestHopFilterForgetsTheLowestRunAtTheCap: a stream keeps maxRuns
// runs. One more forgets the lowest, counted, and a late copy in it is
// delivered again: at least once.
func TestHopFilterForgetsTheLowestRunAtTheCap(t *testing.T) {
	sub := newHopRig(t, 1)
	src, nonce := jid.FromSeed(jid.KindPeer, 2), jid.NewStream()
	send := func(seq uint64) { sub.s.handleProp(view(t, frame(src, jid.NumberedMessage(nonce, seq))), "") }
	for i := range uint64(maxRuns) {
		send(2*i + 1) // every other sequence: a run each
	}
	if f := sub.counter("forgotten"); f != 0 {
		t.Fatalf("forgotten %d below the cap", f)
	}
	send(2*maxRuns + 1)
	if f := sub.counter("forgotten"); f != 1 {
		t.Fatalf("forgotten %d, want 1", f)
	}
	send(3) // the second run is still held
	send(1) // the first was forgotten
	if sub.delivered != maxRuns+2 || sub.counter("duplicates") != 1 {
		t.Fatalf("%d deliveries, %d duplicates; want %d and 1", sub.delivered, sub.counter("duplicates"), maxRuns+2)
	}
}

// TestHopFilterForgetsIdleAndLeastRecentStreams: a stream no frame came
// for in two minutes of ticks is forgotten on the tick after, and a full
// stripe forgets its least recently heard stream; each forgets its runs,
// counted. A frame of unnumbered ID passes unchecked.
func TestHopFilterForgetsIdleAndLeastRecentStreams(t *testing.T) {
	f := newHopFilter(10 * time.Second)
	if f.idle != 12 {
		t.Fatalf("2 min in 10 s ticks is %d ticks, want 12", f.idle)
	}
	src := jid.FromSeed(jid.KindPeer, 2)
	m := frame(src, jid.NumberedMessage(1, 1))
	f.observe(m.ID, m.Src)
	for range 12 {
		f.expire()
	}
	if f.observe(m.ID, m.Src) {
		t.Fatal("a stream 12 ticks idle was forgotten")
	}
	for range 13 {
		f.expire()
	}
	if !f.observe(m.ID, m.Src) || f.Snapshot().Counters["forgotten"] != 1 {
		t.Fatalf("a stream 13 ticks idle was kept: %v", f.Snapshot())
	}

	// Fill the stripe of nonce 1 with streams of its own, each heard
	// once, then hear the first again: the second is the least recent.
	f = newHopFilter(10 * time.Second)
	var nonces []uint64
	for n := uint64(1); len(nonces) < maxStreams/hopStripes+1; n++ {
		if f.stripe(n) == f.stripe(1) {
			nonces = append(nonces, n)
		}
	}
	for _, n := range nonces[:len(nonces)-1] {
		f.observe(jid.NumberedMessage(n, 1), src)
	}
	f.observe(jid.NumberedMessage(nonces[0], 1), src)
	f.observe(jid.NumberedMessage(nonces[len(nonces)-1], 1), src)
	snap := f.Snapshot()
	if snap.Counters["forgotten"] != 1 || snap.Gauges["streams"] != maxStreams/hopStripes {
		t.Fatalf("a full stripe took a stream: %v", snap)
	}
	if f.observe(jid.NumberedMessage(nonces[0], 1), src) {
		t.Fatal("the most recent stream was forgotten")
	}
	if !f.observe(jid.NumberedMessage(nonces[1], 1), src) {
		t.Fatal("the least recent stream was kept")
	}

	if !f.observe(jid.NewMessage(), src) || f.Snapshot().Counters["unnumbered"] != 1 {
		t.Fatal("a frame of unnumbered ID was checked")
	}
}

// TestHopFilterAllocs: once a stream exists, checking a frame allocates
// nothing — in order, a duplicate, and a hole filled.
func TestHopFilterAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector allocates")
	}
	f := newHopFilter(10 * time.Second)
	src, nonce := jid.FromSeed(jid.KindPeer, 2), jid.NewStream()
	m := frame(src, jid.NumberedMessage(nonce, 1))
	f.observe(m.ID, m.Src)
	seq := uint64(1)
	number := func(s uint64) { m.ID = jid.NumberedMessage(nonce, s) }
	for name, step := range map[string]func() bool{
		"in order":  func() bool { seq++; number(seq); return f.observe(m.ID, m.Src) },
		"duplicate": func() bool { number(seq); return !f.observe(m.ID, m.Src) },
		// Open a hole, then fill it: the second call merges two runs.
		"hole filled": func() bool {
			seq += 2
			number(seq)
			ok := f.observe(m.ID, m.Src)
			number(seq - 1)
			return ok && f.observe(m.ID, m.Src)
		},
	} {
		if allocs := testing.AllocsPerRun(1000, func() {
			if !step() {
				t.Fatalf("%s: wrong verdict at %d", name, seq)
			}
		}); allocs != 0 {
			t.Errorf("%s: %.1f allocs per frame, want 0", name, allocs)
		}
	}
}

// TestHopFilterUnderConcurrency: receive goroutines and publishers share
// the filter and the numbering. Four goroutines number 500 messages each
// into one group, and each hands every one of the 2 000 numbers to the
// filter: each number is fresh exactly once.
func TestHopFilterUnderConcurrency(t *testing.T) {
	pub := newHopRig(t, 2).s
	f := newHopFilter(10 * time.Second)
	const workers, each = 4, 500
	ids := make(chan jid.ID, workers*each)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range each {
				ids <- publish(pub).ID
			}
		}()
	}
	wg.Wait()
	close(ids)
	var all []jid.ID
	for id := range ids {
		all = append(all, id)
	}
	var fresh atomic.Int64
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := frame(pub.ep.PeerID(), jid.Nil)
			for i := range all {
				m.ID = all[(i+w*each)%len(all)]
				if f.observe(m.ID, m.Src) {
					fresh.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := fresh.Load(); n != workers*each {
		t.Fatalf("%d fresh verdicts for %d numbers", n, workers*each)
	}
}

// model is the reference the fuzz target holds the filter to: the set
// of sequences one stream keeps, the same in order, and its run count.
// Past maxRuns runs it forgets its lowest.
type model struct {
	set  map[uint64]bool
	seqs []uint64
	runs int
}

func (m *model) observe(seq uint64) bool {
	if m.set[seq] {
		return false
	}
	m.set[seq] = true
	i, _ := slices.BinarySearch(m.seqs, seq)
	m.seqs = slices.Insert(m.seqs, i, seq)
	m.runs++
	if m.set[seq-1] {
		m.runs--
	}
	if m.set[seq+1] {
		m.runs--
	}
	if m.runs > maxRuns {
		n := 1
		for n < len(m.seqs) && m.seqs[n] == m.seqs[n-1]+1 {
			n++
		}
		for _, s := range m.seqs[:n] {
			delete(m.set, s)
		}
		m.seqs = m.seqs[n:]
		m.runs--
	}
	return true
}

// FuzzHopFilter drives arrivals of (stream, sequence) into the filter
// and into a reference model — a set of sequences per stream that
// forgets its lowest run when the stream holds more than maxRuns — and
// wants the same verdict for each arrival and the same runs after.
// Each arrival is three bytes: the stream (one of four), then the
// sequence as a delta from the last one of that stream, big-endian and
// signed; a delta of -32768 repeats 2*maxRuns arrivals of every other
// sequence, which crosses the run cap.
func FuzzHopFilter(f *testing.F) {
	arrivals := func(steps ...[2]int) []byte {
		var b []byte
		for _, s := range steps {
			b = append(b, byte(s[0]))
			b = binary.BigEndian.AppendUint16(b, uint16(int16(s[1])))
		}
		return b
	}
	var inOrder, reversed, holes, capped [][2]int
	for range 50 {
		inOrder = append(inOrder, [2]int{0, 1})
		reversed = append(reversed, [2]int{1, -1})
		holes = append(holes, [2]int{0, 3}, [2]int{1, 2}, [2]int{0, -1})
	}
	reversed[0] = [2]int{1, 60}
	capped = append(capped, [2]int{2, -32768}, [2]int{2, 1}, [2]int{2, -4000}, [2]int{2, -32768}, [2]int{2, 5})
	for _, seed := range [][][2]int{inOrder, reversed, holes, capped} {
		f.Add(arrivals(seed...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fl := newHopFilter(10 * time.Second)
		src := jid.FromSeed(jid.KindPeer, 2)
		msg := frame(src, jid.Nil)
		models := map[uint64]*model{}
		last := map[uint64]uint64{}
		arrived := 0
		check := func(nonce, seq uint64) {
			m := models[nonce]
			if m == nil {
				m = &model{set: map[uint64]bool{}}
				models[nonce] = m
			}
			msg.ID = jid.NumberedMessage(nonce, seq)
			if got, want := fl.observe(msg.ID, msg.Src), m.observe(seq); got != want {
				t.Fatalf("stream %d sequence %d: fresh %v, want %v", nonce, seq, got, want)
			}
			arrived++
		}
		for ; len(data) >= 3 && arrived < 1<<14; data = data[3:] {
			nonce := uint64(data[0]%4) + 1
			delta := int64(int16(binary.BigEndian.Uint16(data[1:])))
			if delta == -32768 {
				for range 2 * maxRuns {
					last[nonce] += 2
					check(nonce, last[nonce])
				}
				continue
			}
			last[nonce] = uint64(max(1, int64(last[nonce])+delta))
			check(nonce, last[nonce])
		}
		for nonce, m := range models {
			var want []run
			for _, s := range m.seqs {
				if n := len(want); n > 0 && want[n-1].hi+1 == s {
					want[n-1].hi = s
				} else {
					want = append(want, run{s, s})
				}
			}
			if got := fl.stripe(nonce).streams[streamKey{nonce, src.UUID()}].runs; !slices.Equal(got, want) {
				t.Fatalf("stream %d: runs %v, want %v", nonce, got, want)
			}
		}
	})
}
