package recovery

import (
	"testing"

	"github.com/tps-p2p/tps/internal/jxta/jid"
)

var (
	o1 = jid.FromSeed(jid.KindPeer, 1)
	o2 = jid.FromSeed(jid.KindPeer, 2)
)

// TestSubscriberCursors feeds deliveries and gap signals to a
// Subscriber and reads its cursors. The invariant that makes
// at-least-once redelivery converge is that a cursor never passes a
// sequence that was not received, while a gap signal moves it over a
// range the log declared gone.
func TestSubscriberCursors(t *testing.T) {
	type step struct {
		origin      jid.ID
		seqs        []uint64 // delivered, in order
		gap         bool     // a gap signal, first..last
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
		// and 9 drains them. A stale gap, an unbounded one (nothing
		// retained) and one for an origin without a cursor move nothing.
		name: "gap_skips_retention",
		steps: []step{
			{origin: o1, seqs: []uint64{1, 10, 11}, want: 1},
			{origin: o1, gap: true, first: 9, last: 11, want: 8},
			{origin: o1, seqs: []uint64{9}, want: 11},
			{origin: o1, gap: true, first: 5, last: 11, want: 11},
			{origin: o1, gap: true, first: 0, last: 0, want: 11},
			{origin: o2, gap: true, first: 9, last: 11, want: 0},
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
			for i, st := range tc.steps {
				for _, seq := range st.seqs {
					s.Delivered(st.origin, seq)
				}
				if st.gap {
					s.Gap(st.origin, st.first, st.last)
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

// TestSubscriberRounds steps epochs, rounds and send results: a new
// lease owes its rendezvous one round of requests — its own log, and
// under active/standby every other origin a cursor is held for — a
// request the transport refused is owed again, one without a lease is
// not.
func TestSubscriberRounds(t *testing.T) {
	for _, standby := range []bool{false, true} {
		s := NewSubscriber(standby)
		s.Delivered(o1, 1)
		s.Delivered(o2, 1)
		s.Delivered(o2, 2)
		if got := s.Round(nil); len(got) != 0 {
			t.Fatalf("standby %v: requests %v before any lease", standby, got)
		}
		s.Epoch(o1)
		want := []Request{{RDV: o1, Origin: o1, After: 1}}
		if standby {
			want = append(want, Request{RDV: o1, Origin: o2, After: 2})
		}
		got := s.Round(nil)
		if len(got) != len(want) || got[0] != want[0] || (standby && got[1] != want[1]) {
			t.Fatalf("standby %v: round %v, want %v", standby, got, want)
		}
		if got := s.Round(nil); len(got) != 0 {
			t.Fatalf("standby %v: a second round asked again: %v", standby, got)
		}
		s.Sent(o1, Failed)
		if got := s.Round(nil); len(got) != len(want) {
			t.Fatalf("standby %v: a refused request is owed %v, want %v", standby, got, want)
		}
		s.Sent(o1, NoLease)
		s.Sent(o1, Sent)
		if s.Owed() != 0 {
			t.Fatalf("standby %v: a request without a lease is still owed", standby)
		}
		// A first lease with a rendezvous whose log this subscriber has
		// no cursor for asks for everything it retains.
		s.Epoch(o2)
		if got := s.Round(nil); got[0] != (Request{RDV: o2, Origin: o2, After: 2}) {
			t.Fatalf("standby %v: round %v", standby, got)
		}
		s.Epoch(jid.FromSeed(jid.KindPeer, 3))
		if got := s.Round(nil); got[0].After != 0 {
			t.Fatalf("standby %v: first contact asks after %d", standby, got[0].After)
		}
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
		{"own log, cursor inside", 6, own, Verdict{Serve: true, From: 6}},
		{"own log, cursor at the head's edge", 4, own, Verdict{Serve: true, From: 4}},
		{"own log, late joiner", 0, own, Verdict{Serve: true}},
		{"own log, cursor behind retention", 2, own, Verdict{Gap: true, First: 5, Last: 9, Serve: true, From: 2}},
		{"own log, cursor at the tail", 9, own, Verdict{Serve: true, From: 9}},
		{"own log restarted under the cursor", 12, own, Verdict{Gap: true, First: 5, Last: 9, Serve: true}},
		{"own log restarted empty", 3, Stream{Self: true}, Verdict{Gap: true}},
		{"own log empty, late joiner", 0, Stream{Self: true}, Verdict{}},
		{"copy, cursor inside", 6, cp, Verdict{Serve: true, From: 6}},
		{"copy, cursor behind retention", 2, cp, Verdict{Gap: true, First: 5, Last: 9, Serve: true, From: 2}},
		{"copy behind the cursor", 12, cp, Verdict{}},
		{"unheld origin, outside any replica set", 3, Stream{}, Verdict{}},
		{"unheld origin, zero cursor", 0, unheld, Verdict{}},
		{"unheld origin, a synced replica advertises it", 3, Stream{Replicates: true, Advertised: true, Synced: true}, Verdict{}},
		{"unheld origin, gone from the replica set", 3, unheld, Verdict{Gap: true}},
		{"unheld origin, not synced yet", 3, Stream{Replicates: true}, Verdict{Gap: true, Tentative: true}},
	} {
		if got := Serve(tc.cursor, tc.st); got != tc.want {
			t.Errorf("%s: Serve(%d, %+v) = %+v, want %+v", tc.name, tc.cursor, tc.st, got, tc.want)
		}
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
		for _, q := range s.Round(nil) {
			v := Serve(q.After, log)
			if v.Gap {
				gaps++
				s.Gap(q.Origin, v.First, v.Last)
			}
			for seq := v.From + 1; v.Serve && seq <= log.Last; seq++ {
				s.Delivered(q.Origin, seq)
			}
		}
	}
	if gaps != 1 || s.Mark(o1) != 2 {
		t.Fatalf("%d gaps, cursor %d: want 1 gap and the cursor at the new log's tail, 2", gaps, s.Mark(o1))
	}
}
