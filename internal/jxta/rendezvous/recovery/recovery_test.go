package recovery

import (
	"slices"
	"testing"

	"github.com/tps-p2p/tps/internal/jxta/jid"
)

var (
	o1 = jid.FromSeed(jid.KindPeer, 1)
	o2 = jid.FromSeed(jid.KindPeer, 2)
)

// TestSubscriberCursors feeds deliveries and answers with gaps to a
// Subscriber and reads its cursors. The invariant that makes
// at-least-once redelivery converge is that a cursor never passes a
// sequence that was not received, while an answer moves it over a range
// the log declared gone.
func TestSubscriberCursors(t *testing.T) {
	type step struct {
		origin      jid.ID
		seqs        []uint64 // delivered, in order
		gap         bool     // an answer with a gap, first..last
		first, last uint64
		want        uint64 // origin's cursor after the step
	}
	seqs := func(from, to uint64) (out []uint64) {
		for s := from; s <= to; s++ {
			out = append(out, s)
		}
		return out
	}
	for _, tc := range []struct {
		name  string
		steps []step
	}{{
		// A hole at 3 holds the cursor at 2, so the next request
		// refetches 3: advancing to the highest seen would skip it for
		// good. Filling the hole drains the run above it; duplicates and
		// stale sequences change nothing.
		name: "advances_only_contiguously",
		steps: []step{
			{origin: o1, seqs: []uint64{1, 2}, want: 2},
			{origin: o1, seqs: []uint64{4, 5, 6}, want: 2},
			{origin: o1, seqs: []uint64{3}, want: 6},
			{origin: o1, seqs: []uint64{4, 6, 1}, want: 6},
		},
	}, {
		name: "per_origin",
		steps: []step{
			{origin: o1, seqs: []uint64{1, 2}, want: 2},
			{origin: o2, seqs: []uint64{1}, want: 1},
			{origin: o1, want: 2},
		},
	}, {
		// Retention dropped 2..8 and the log retains 9..11. The gap
		// moves the cursor to 8, keeping 10 and 11 received above it,
		// and 9 drains them. A stale gap and an unbounded one (nothing
		// retained) move nothing; one for an origin without a cursor
		// starts it below what is retained.
		name: "gap_skips_retention",
		steps: []step{
			{origin: o1, seqs: []uint64{1, 10, 11}, want: 1},
			{origin: o1, gap: true, first: 9, last: 11, want: 8},
			{origin: o1, seqs: []uint64{9}, want: 11},
			{origin: o1, gap: true, first: 5, last: 11, want: 11},
			{origin: o1, gap: true, first: 0, last: 0, want: 11},
			{origin: o2, gap: true, first: 9, last: 11, want: 8},
		},
	}, {
		// A gap wider than the window clears what was received above
		// the old mark: its bits would name sequences past the new one.
		name: "gap_wider_than_the_window",
		steps: []step{
			{origin: o1, seqs: []uint64{1, 3}, want: 1},
			{origin: o1, gap: true, first: 3 + Window, last: 3 + Window, want: 2 + Window},
			{origin: o1, seqs: []uint64{4 + Window}, want: 2 + Window},
			{origin: o1, seqs: []uint64{3 + Window}, want: 4 + Window},
		},
	}, {
		// Sequence 1 never arrives. What lies inside the window is
		// remembered; a sequence past it is not recorded, and is asked
		// for again once the hole fills.
		name: "past_the_window_is_refetched",
		steps: []step{
			{origin: o1, seqs: seqs(2, Window+2), want: 0},
			{origin: o1, seqs: []uint64{1}, want: Window},
			{origin: o1, seqs: []uint64{Window + 1, Window + 2}, want: Window + 2},
		},
	}, {
		// The log restarted its numbering under the cursor and retains
		// 1..2: the cursor follows it down, and the replay that comes
		// with the signal carries it up again under the new numbering.
		name: "restarted_numbering",
		steps: []step{
			{origin: o1, seqs: seqs(1, 5), want: 5},
			{origin: o1, gap: true, first: 1, last: 2, want: 0},
			{origin: o1, seqs: []uint64{2, 1}, want: 2},
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSubscriber(false)
			s.Epoch(o1)
			s.Epoch(o2)
			s.Round(nil, false) // answers are taken for requests sent
			for i, st := range tc.steps {
				for _, seq := range st.seqs {
					s.Delivered(st.origin, seq)
				}
				if st.gap {
					s.Answer(st.origin, st.origin, st.first, st.last, true)
				}
				if got := s.Mark(st.origin); got != st.want {
					t.Fatalf("step %d: cursor %d, want %d", i, got, st.want)
				}
			}
		})
	}
}

// TestSubscriberAllocs holds the per-delivery path to no allocation once
// an origin's cursor exists, in order or not.
func TestSubscriberAllocs(t *testing.T) {
	s := NewSubscriber(false)
	s.Delivered(o1, 1)
	seq := uint64(1)
	if n := testing.AllocsPerRun(1000, func() {
		seq += 2
		s.Delivered(o1, seq)
		s.Delivered(o1, seq-1)
	}); n != 0 {
		t.Fatalf("%v allocations per delivery", n)
	}
}

// find returns the request of reqs for origin, and how many there are.
func find(reqs []Request, origin jid.ID) (Request, int) {
	i := slices.IndexFunc(reqs, func(q Request) bool { return q.Origin == origin })
	if i < 0 {
		return Request{}, len(reqs)
	}
	return reqs[i], len(reqs)
}

// TestSubscriberRounds steps epochs and rounds: a new lease owes its
// rendezvous one round of requests, a window each — its own log, and
// under active/standby every other origin a cursor is held for — and a
// request that is never answered is asked for again on the second tick
// after it.
func TestSubscriberRounds(t *testing.T) {
	for _, standby := range []bool{false, true} {
		s := NewSubscriber(standby)
		s.Delivered(o1, 1)
		s.Delivered(o2, 1)
		s.Delivered(o2, 2)
		if got := s.Round(nil, true); len(got) != 0 {
			t.Fatalf("standby %v: requests %v before any lease", standby, got)
		}
		s.Epoch(o1)
		want := 1
		if standby {
			want = 2
		}
		got := s.Round(nil, false)
		if q, n := find(got, o1); n != want || q != (Request{RDV: o1, Origin: o1, After: 1, Max: W}) {
			t.Fatalf("standby %v: round %v", standby, got)
		}
		if q, _ := find(got, o2); standby && q != (Request{RDV: o1, Origin: o2, After: 2, Max: W}) {
			t.Fatalf("standby %v: round %v", standby, got)
		}
		if got := s.Round(nil, false); len(got) != 0 {
			t.Fatalf("standby %v: a second round asked again: %v", standby, got)
		}
		// The requests never arrived, or were never sent: no answer
		// comes, and the cursor stands still. The first tick counts the
		// requests as a move; the second asks again.
		if got := s.Round(nil, true); len(got) != 0 {
			t.Fatalf("standby %v: the tick after a request asked again: %v", standby, got)
		}
		if got := s.Round(nil, true); len(got) != want {
			t.Fatalf("standby %v: unanswered requests are asked again %v, want %d", standby, got, want)
		}
		if s.Owed() != 0 {
			t.Fatalf("standby %v: %d streams still owed after their requests", standby, s.Owed())
		}
		// A first lease with a rendezvous whose log this subscriber has
		// no cursor for asks for everything it retains.
		s.Epoch(o2)
		if q, _ := find(s.Round(nil, false), o2); q != (Request{RDV: o2, Origin: o2, After: 2, Max: W}) {
			t.Fatalf("standby %v: round asks %v", standby, q)
		}
		o3 := jid.FromSeed(jid.KindPeer, 3)
		s.Epoch(o3)
		if q, _ := find(s.Round(nil, false), o3); q.After != 0 || q.RDV != o3 {
			t.Fatalf("standby %v: first contact asks %v", standby, q)
		}
	}
}

// TestSubscriberPullsWindows pulls a log of 3W records window by window.
// The cursor's crossing of the middle of a window makes the next one
// due, and only then; a window whose frames stop short asks again from
// the mark on the second tick that finds the cursor where it was, not
// before a whole tick has passed.
func TestSubscriberPullsWindows(t *testing.T) {
	s := NewSubscriber(false)
	s.Epoch(o1)
	ask := func(tick bool, want ...uint64) {
		t.Helper()
		var after []uint64
		for _, q := range s.Round(nil, tick) {
			if q.RDV != o1 || q.Origin != o1 || q.Max != W {
				t.Fatalf("request %+v", q)
			}
			after = append(after, q.After)
		}
		if !slices.Equal(after, want) {
			t.Fatalf("round asks after %v, want %v", after, want)
		}
	}
	deliver := func(from, to uint64, wantDue uint64) {
		t.Helper()
		for seq := from; seq <= to; seq++ {
			if due := s.Delivered(o1, seq); due != (seq == wantDue) {
				t.Fatalf("delivering %d reports due %v", seq, due)
			}
		}
	}
	ask(false, 0)
	s.Answer(o1, o1, 1, 3*W, false)
	deliver(1, W/2-1, 0)
	ask(true)  // the tick that follows a request
	ask(false) // below the low-water mark
	deliver(W/2, W/2, W/2)
	ask(false, W)
	deliver(W/2+1, W, 0)
	s.Answer(o1, o1, 1, 3*W, false)
	ask(true)
	// The next window's frames stop at 3W/2: the cursor stalls there.
	deliver(W+1, 3*W/2, 3*W/2)
	ask(false, 2*W)
	s.Answer(o1, o1, 1, 3*W, false)
	ask(true)
	ask(true, 3*W/2)
	deliver(3*W/2+1, 2*W, 2*W)
	ask(false, 5*W/2)
	deliver(2*W+1, 3*W, 3*W)
	s.Answer(o1, o1, 1, 3*W, false)
	ask(false)
	ask(true)
	ask(true)
	if s.Mark(o1) != 3*W {
		t.Fatalf("cursor %d, want %d", s.Mark(o1), 3*W)
	}
}

// TestTrimmedLogIsPulledWithoutATick: a late joiner asks after 0 of a
// log whose head retention dropped; the server serves its first window
// from the retained head, and the cursor crossing the middle of that
// window asks for the next one, as it would from 0.
func TestTrimmedLogIsPulledWithoutATick(t *testing.T) {
	s := NewSubscriber(false)
	s.Epoch(o1)
	s.Round(nil, false)
	const first = 1000
	s.Answer(o1, o1, first, first+3*W, false)
	for seq := uint64(first); seq < first+W; seq++ {
		if due := s.Delivered(o1, seq); due != (seq == first-1+W/2) {
			t.Fatalf("delivering %d reports due %v", seq, due)
		}
	}
	if got := s.Round(nil, false); len(got) != 1 || got[0].After != first-1+W {
		t.Fatalf("round asks %v, want the window after %d", got, first-1+W)
	}
}

// TestCaughtUpSubscriberAsksNothing: once a subscriber holds all its
// rendezvous said it retains, no round asks anything, kicked or ticked,
// and events that arrive live change nothing — nor does the one of
// every pair that overtakes the other, which puts a received sequence
// past the window the cursor is in: nothing polls, and what arrives live
// is not asked for again.
func TestCaughtUpSubscriberAsksNothing(t *testing.T) {
	s := NewSubscriber(true)
	s.Delivered(o2, 4)
	s.Epoch(o1)
	if got := s.Round(nil, false); len(got) != 2 {
		t.Fatalf("first round %v", got)
	}
	s.Answer(o1, o1, 1, 5, false)
	s.Answer(o1, o2, 0, 0, false)
	for seq := uint64(1); seq <= 5; seq++ {
		s.Delivered(o1, seq)
	}
	sent := 0
	for n := uint64(0); n < 1000; n += 2 {
		s.Delivered(o1, 7+n)
		sent += len(s.Round(nil, n%4 == 0))
		s.Delivered(o1, 6+n)
		sent += len(s.Round(nil, false))
	}
	if sent != 0 {
		t.Fatalf("a caught-up subscriber sent %d requests", sent)
	}
}

// TestServe is the verdict of each branch a log server takes on a
// replay request.
func TestServe(t *testing.T) {
	own := Stream{Self: true, Held: true, First: 5, Last: 9}
	cp := Stream{Held: true, First: 5, Last: 9, Replicates: true}
	unheld := Stream{Replicates: true, Synced: true}
	for _, tc := range []struct {
		name   string
		cursor uint64
		st     Stream
		want   Verdict
	}{
		{"own log, cursor inside", 6, own, Verdict{First: 5, Last: 9, Serve: true, From: 6, Max: 3}},
		{"own log, cursor at the head's edge", 4, own, Verdict{First: 5, Last: 9, Serve: true, From: 4, Max: 3}},
		{"own log, late joiner", 0, own, Verdict{First: 5, Last: 9, Serve: true, Max: 3}},
		{"own log, cursor behind retention", 2, own, Verdict{Gap: true, First: 5, Last: 9, Serve: true, From: 2, Max: 3}},
		{"own log, cursor at the tail", 9, own, Verdict{First: 5, Last: 9, Serve: true, From: 9, Max: 3}},
		{"own log restarted under the cursor", 12, own, Verdict{Gap: true, First: 5, Last: 9, Serve: true, Max: 3}},
		{"own log restarted empty", 3, Stream{Self: true}, Verdict{Gap: true}},
		{"own log empty, late joiner", 0, Stream{Self: true}, Verdict{}},
		{"copy, cursor inside", 6, cp, Verdict{First: 5, Last: 9, Serve: true, From: 6, Max: 3}},
		{"copy, cursor behind retention", 2, cp, Verdict{Gap: true, First: 5, Last: 9, Serve: true, From: 2, Max: 3}},
		{"copy behind the cursor", 12, cp, Verdict{First: 5, Last: 9}},
		{"unheld origin, outside any replica set", 3, Stream{}, Verdict{}},
		{"unheld origin, zero cursor", 0, unheld, Verdict{}},
		{"unheld origin, a synced replica advertises it", 3, Stream{Replicates: true, Advertised: true, Synced: true}, Verdict{}},
		{"unheld origin, gone from the replica set", 3, unheld, Verdict{Gap: true}},
		{"unheld origin, not synced yet", 3, Stream{Replicates: true}, Verdict{Gap: true, Tentative: true}},
	} {
		if got := Serve(tc.cursor, 3, tc.st); got != tc.want {
			t.Errorf("%s: Serve(%d, 3, %+v) = %+v, want %+v", tc.name, tc.cursor, tc.st, got, tc.want)
		}
	}
	// A request for more than a window is served one.
	if v := Serve(6, 10*W, own); v.Max != W {
		t.Errorf("a request for %d records is served %d, want W = %d", 10*W, v.Max, W)
	}
}

// TestRestartedNumberingIsReportedOnce runs a log that restarted its
// numbering under a subscriber's cursor through two lease epochs. The
// first request gets a gap and all of the new log; the cursor follows
// the new numbering, so the second asks from its tail and gets neither
// a second gap nor a second replay of the whole log.
func TestRestartedNumberingIsReportedOnce(t *testing.T) {
	s := NewSubscriber(false)
	for seq := uint64(1); seq <= 5; seq++ {
		s.Delivered(o1, seq)
	}
	log := Stream{Self: true, Held: true, First: 1, Last: 2}
	var gaps int
	for epoch := 0; epoch < 2; epoch++ {
		s.Epoch(o1)
		for _, q := range s.Round(nil, false) {
			v := Serve(q.After, q.Max, log)
			if v.Gap {
				gaps++
			}
			s.Answer(q.RDV, q.Origin, v.First, v.Last, v.Gap)
			for seq := v.From + 1; v.Serve && seq <= min(log.Last, v.From+v.Max); seq++ {
				s.Delivered(q.Origin, seq)
			}
		}
	}
	if gaps != 1 || s.Mark(o1) != 2 {
		t.Fatalf("%d gaps, cursor %d: want 1 gap and the cursor at the new log's tail, 2", gaps, s.Mark(o1))
	}
}
