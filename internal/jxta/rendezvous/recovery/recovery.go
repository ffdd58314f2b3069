// Package recovery is the durable-delivery protocol's decisions, as a
// pure core: a subscriber's replay cursors and the windows of a log it
// asks for (Subscriber), and a log server's verdict on one request
// (Serve). It holds no lock, reads no clock, starts nothing and
// sends nothing. The engine drives one Subscriber per attachment
// (engine/replay.go) and the rendezvous' log server drives Serve
// (rendezvous/logserver.go), the way rendezvous/lease.go drives the
// control core.
//
// The protocol is at-least-once and the reader's position drives it: a
// subscriber pulls, and a server answers one request and keeps nothing.
// A logging rendezvous numbers every event of a topic; a subscriber
// keeps, per origin log, the highest contiguous sequence it has
// received, and asks a rendezvous for the window of W records after it
// on each new lease, and for the next window once the cursor has crossed
// the middle of the last while the server retains more: every answer
// names the range the server retains, and what it logs later arrives
// live. A server that no longer retains what follows the cursor says
// so (a gap), which the subscriber reports as a ReplayGapError: loss is
// named, never silent. A cursor that stays behind what was said to be
// retained, or behind a sequence that did arrive, for a whole tick asks
// again from where it stands, so a request, an answer or an event lost
// on the way is asked for again. Only the newest event, lost with
// nothing numbered after it, shows in no frame: the next event or lease
// reveals it.
package recovery

import "github.com/tps-p2p/tps/internal/jxta/jid"

// W is the window of records a replay request names, (after, after+W],
// and the most a server sends for one. With the next window asked for
// from the middle of the last, at most 3W/2 replayed frames are in
// flight to a subscriber: well under a transport's per-host queue
// (tcpnet's holds 1024 frames and sheds the oldest), which a replay
// deeper than the queue would otherwise overrun. Each window costs a
// request and an answer, about fourteen allocations between the two
// peers: at 96 records they cost a late joiner fewer allocations per
// event than the pushed replay did, where a window of 32 costs it 7 %
// more (bench catchup800_2k, loopback TCP).
const W = 96

// Window is how many sequences above its mark a cursor remembers
// having received. A sequence further ahead is not recorded: the next
// request asks for it again, which costs redelivery, never data.
const Window = 4096

// cursor is one origin's delivery progress: the mark, the highest
// contiguous sequence received — not the highest seen, which would skip
// a hole for good — and a bitmap of the sequences received in (mark,
// mark+Window], bit seq mod Window. The bit of mark+1 is always clear:
// whatever moves the mark drains the run above it. top is the highest
// sequence received, and low the low-water mark of the last window asked
// for.
type cursor struct {
	mark, top, low uint64
	seen           [Window / 64]uint64
}

func (c *cursor) bit(seq uint64) (*uint64, uint64) {
	i := seq % Window
	return &c.seen[i/64], 1 << (i % 64)
}

// deliver records seq. An in-order sequence moves the mark and reads one
// word; one at or below the mark, or past the window, changes nothing.
func (c *cursor) deliver(seq uint64) {
	c.top = max(c.top, seq)
	switch {
	case seq == c.mark+1:
		c.mark = seq
		c.drain()
	case seq > c.mark && seq-c.mark <= Window:
		w, m := c.bit(seq)
		*w |= m
	}
}

// drain moves the mark over the received run right above it.
func (c *cursor) drain() {
	for w, m := c.bit(c.mark + 1); *w&m != 0; w, m = c.bit(c.mark + 1) {
		*w &^= m
		c.mark++
	}
}

// skip moves the mark up to first-1, over a range an answer declared
// gone, and keeps what was received above it.
func (c *cursor) skip(first uint64) {
	if first > c.mark+Window {
		c.seen, c.mark = [Window / 64]uint64{}, first-1
	}
	for ; c.mark+1 < first; c.mark++ {
		w, m := c.bit(c.mark + 1)
		*w &^= m
	}
	c.drain()
}

// Request asks RDV for the records of Origin's log in (After,
// After+Max].
type Request struct {
	RDV, Origin jid.ID
	After, Max  uint64
}

// stream names what one rendezvous serves of one origin's log.
type stream struct{ rdv, origin jid.ID }

// pull is a subscriber's side of one stream: whether a new epoch owes
// it a request, how far it asked, what the last answer said, and the
// mark at the last tick — none after a request, which counts as a move.
type pull struct {
	owed, answered   bool
	asked, end, prev uint64
}

// Subscriber is one attachment's recovery state: a cursor per origin
// log, and a pull per stream of a rendezvous that granted it a lease.
type Subscriber struct {
	standby bool
	w       uint64 // the window a request asks for: W (the explorer's is smaller)
	cursors map[jid.ID]*cursor
	pulls   map[stream]*pull
}

// NewSubscriber returns an empty Subscriber. Under activeStandby a
// request carries every origin's cursor to every rendezvous, not just
// that rendezvous' own.
func NewSubscriber(activeStandby bool) *Subscriber {
	return &Subscriber{standby: activeStandby, w: W, cursors: make(map[jid.ID]*cursor, 1), pulls: make(map[stream]*pull, 1)}
}

func (s *Subscriber) cursor(origin jid.ID) *cursor {
	c := s.cursors[origin]
	if c == nil {
		c = new(cursor)
		s.cursors[origin] = c
	}
	return c
}

// Delivered records that the event origin's log numbered seq was
// received, a duplicate too: a replayed copy of an event delivered live
// is what moves the cursor into the replaying log. It reports whether
// the cursor crossed the low-water mark of the last window asked for,
// which makes the next window due: the caller runs a round.
func (s *Subscriber) Delivered(origin jid.ID, seq uint64) (due bool) {
	c := s.cursor(origin)
	below := c.mark < c.low
	c.deliver(seq)
	return below && c.mark >= c.low
}

// Answer takes rdv's answer to a request for origin's log: the log
// retains first..last (0..0 for nothing), and gap says the server found
// the request's cursor behind retention or past its numbering. A
// retained head above the cursor moves it up to first-1: waiting for
// what is gone would stall it. A gap that ends below the mark says the
// log's numbering restarted under the cursor — the server serves the new
// one after the signal — so the cursor follows it down to first-1, and
// events of the new numbering are asked for by their own sequences.
// A sequence received past the log's end is of an old numbering, or
// arrived after the server answered, and the next event tells again: it
// no longer makes the cursor ask. It reports whether the answer is a
// loss: a gap, or a cursor moved over sequences it never received; a
// late joiner's zero cursor lost nothing. An answer to no request of
// this subscriber — one of an earlier process, or one on a lease since
// lost — changes nothing.
func (s *Subscriber) Answer(rdv, origin jid.ID, first, last uint64, gap bool) (lost bool) {
	p := s.pulls[stream{rdv, origin}]
	if p == nil {
		return false
	}
	p.end, p.answered = last, true
	c := s.cursor(origin)
	c.top = min(c.top, last)
	switch {
	case first == 0:
	case gap && last < c.mark:
		*c, p.asked = cursor{mark: first - 1}, 0
	case first > c.mark+1:
		lost = c.mark > 0
		c.skip(first)
	}
	// A window asked for below first was served from first.
	if first > 0 && p.asked < first-1+s.w {
		p.asked, c.low = first-1+s.w, first-1+s.w-s.w/2
	}
	return gap || lost
}

// Epoch records that rdv granted a new lease: it knows nothing of what
// this subscriber received, and is owed the next round's requests — one
// for its own log (a zero cursor on first contact: everything retained),
// and under active/standby one per other origin a cursor is held for,
// which a standby serves from its copy of a dead primary's log.
func (s *Subscriber) Epoch(rdv jid.ID) {
	s.cursor(rdv)
	for origin := range s.cursors {
		if k := (stream{rdv, origin}); origin == rdv || s.standby {
			if s.pulls[k] == nil {
				s.pulls[k] = new(pull)
			}
			s.pulls[k].owed = true
		}
	}
}

// Round appends to out the requests due, each for a window of W records
// after where it starts:
//   - for a stream a new epoch owes a request, the window after the mark;
//   - for a stream whose cursor is past the low-water mark of the last
//     window, and not past the window, while the server said it retains
//     more, the next window: what is logged after the server answered
//     arrives live, under the lease the request was sent on;
//   - on a tick, for a stream whose cursor has not moved since the last
//     tick while it is behind what the server said it retains, behind a
//     sequence that did arrive, or still waiting for an answer, the
//     window after the mark again: a request the transport refused or
//     found no lease for, or a request, an answer or an event lost on
//     the way, is asked for again. A request counts as a move, so one is
//     not repeated before a whole tick has passed.
//
// A caught-up stream asks nothing. The caller sends each request, and
// needs to report nothing back.
func (s *Subscriber) Round(out []Request, tick bool) []Request {
	for k, p := range s.pulls {
		c := s.cursor(k.origin)
		stalled := tick && c.mark == p.prev
		if tick {
			p.prev = c.mark
		}
		switch {
		case p.owed || stalled && (c.mark < max(p.end, c.top) || !p.answered):
			out = s.ask(out, k, p, c.mark)
		case p.end > p.asked && c.mark <= p.asked && c.mark+s.w/2 >= p.asked:
			out = s.ask(out, k, p, p.asked)
		}
	}
	return out
}

// ask appends the request for the window after after.
func (s *Subscriber) ask(out []Request, k stream, p *pull, after uint64) []Request {
	p.owed, p.answered, p.asked, p.prev = false, false, after+s.w, ^uint64(0)
	s.cursor(k.origin).low = p.asked - s.w/2
	return append(out, Request{RDV: k.rdv, Origin: k.origin, After: after, Max: s.w})
}

// Mark returns origin's cursor, 0 if none is held.
func (s *Subscriber) Mark(origin jid.ID) uint64 {
	if c := s.cursors[origin]; c != nil {
		return c.mark
	}
	return 0
}

// Marks calls fn with every origin's cursor.
func (s *Subscriber) Marks(fn func(origin jid.ID, mark uint64)) {
	for origin, c := range s.cursors {
		fn(origin, c.mark)
	}
}

// Owed counts the streams a new epoch owes a request.
func (s *Subscriber) Owed() (n int) {
	for _, p := range s.pulls {
		if p.owed {
			n++
		}
	}
	return n
}

// Stream is what a log server holds of the stream a request names.
type Stream struct {
	// Self is set when the server's own log numbered the stream, Held
	// when records of it are held: First..Last.
	Self, Held  bool
	First, Last uint64
	// Replicates is set on a member of a replica set. Advertised and
	// Synced are what it learned from the others: a synced replica still
	// advertises the stream, and it has completed a first exchange.
	Replicates, Advertised, Synced bool
}

// Verdict is a server's answer to one request: a signal naming the
// retained range, First..Last (both 0 for nothing), sent first, then —
// if Serve — at most Max records after From. Gap says the range tells
// the requester it lost records, or that the log restarted; Tentative
// that the gap is provisional, the server not having synced yet.
type Verdict struct {
	First, Last, From, Max uint64
	Gap, Tentative, Serve  bool
}

// Serve decides how a log answers a request for the window of want
// records of st after cursor, clamped to W; one for none is answered
// with the range alone. A server serves its own log, and a copy of
// another origin's under the origin's numbering — which makes a
// failover exactly-once. A replica-set member holding none of an
// origin's stream says the suffix is gone, unless a synced member still
// advertises it; a server outside the set serves nothing and names
// nothing. An own log holding nothing says the same to a requester with
// history: it restarted empty. A copy behind the cursor has nothing the
// requester lacks. A cursor past the own log's end means its numbering
// restarted: a gap, and the new numbering served from its start. A
// cursor behind retention gets a gap, then the retained records; a zero
// cursor asks for everything, and gets it without one.
func Serve(cursor, want uint64, st Stream) (v Verdict) {
	if st.Held {
		v.First, v.Last = st.First, st.Last
	}
	switch {
	case !st.Held:
		// A synced replica still advertising the stream means our copy
		// has not arrived yet: nothing is lost, and anti-entropy mirrors
		// it to the leased clients when it lands. Otherwise the suffix
		// is gone — provisionally so before a first digest exchange.
		v.Gap = cursor > 0 && (st.Self || st.Replicates && !st.Advertised)
		v.Tentative = v.Gap && !st.Self && !st.Synced
		return v
	case cursor > st.Last:
		if !st.Self {
			return v // the cursor proves the copy's missing tail was delivered
		}
		v.Gap, cursor = true, 0
	case cursor > 0 && cursor+1 < st.First:
		v.Gap = true // retention dropped (cursor, First)
	}
	v.Serve, v.From, v.Max = want > 0, cursor, min(want, W)
	return v
}
