// Package recovery is the durable-delivery protocol's decisions, as a
// pure core: a subscriber's replay cursors and the replay requests its
// new lease epochs owe (Subscriber), and a log server's verdict on one
// request (Serve). It holds no lock, reads no clock, starts nothing and
// sends nothing. The engine drives one Subscriber per attachment
// (engine/replay.go) and the rendezvous' log server drives Serve
// (rendezvous/logserver.go), the way rendezvous/lease.go drives the
// control core.
//
// The protocol is at-least-once and the reader's position drives it. A
// logging rendezvous numbers every event of a topic; a subscriber keeps,
// per origin log, the highest contiguous sequence it has received, and
// on each new lease asks every rendezvous it leases with for the
// retained records after it. A server that no longer retains what
// follows the cursor says so with a gap signal, which the subscriber
// reports as a ReplayGapError: loss is named, never silent. A replayed
// or live frame lost inside one lease epoch is asked for again only on
// the next epoch (ROADMAP item 1).
package recovery

import "github.com/tps-p2p/tps/internal/jxta/jid"

// Window is how many sequences above its mark a cursor remembers
// having received. A sequence further ahead is not recorded: the next
// request asks for it again, which costs redelivery, never data.
const Window = 4096

// cursor is one origin's delivery progress: the mark, the highest
// contiguous sequence received — not the highest seen, which would skip
// a hole for good — and a bitmap of the sequences received in (mark,
// mark+Window], bit seq mod Window. The bit of mark+1 is always clear:
// whatever moves the mark drains the run above it.
type cursor struct {
	mark uint64
	seen [Window / 64]uint64
}

func (c *cursor) bit(seq uint64) (*uint64, uint64) {
	i := seq % Window
	return &c.seen[i/64], 1 << (i % 64)
}

// deliver records seq. An in-order sequence moves the mark and reads one
// word; one at or below the mark, or past the window, changes nothing.
func (c *cursor) deliver(seq uint64) {
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

// skip moves the mark up to first-1, over a range a gap signal declared
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

// Result is what became of one replay request the driver tried to send.
type Result uint8

const (
	Sent    Result = iota // on its way
	NoLease               // no lease with the rendezvous: the next one owes a request
	Failed                // refused by the transport: the next round asks again
)

// Request asks RDV for the retained records of Origin's log after After.
type Request struct {
	RDV, Origin jid.ID
	After       uint64
}

// Subscriber is one attachment's recovery state: a cursor per origin
// log, and the rendezvous that started a lease epoch and have not been
// sent its requests yet.
type Subscriber struct {
	standby bool
	cursors map[jid.ID]*cursor
	owed    map[jid.ID]bool
}

// NewSubscriber returns an empty Subscriber. Under activeStandby a
// request carries every origin's cursor to every rendezvous, not just
// that rendezvous' own.
func NewSubscriber(activeStandby bool) *Subscriber {
	return &Subscriber{standby: activeStandby, cursors: make(map[jid.ID]*cursor, 1), owed: make(map[jid.ID]bool, 1)}
}

// Delivered records that the event origin's log numbered seq was
// received: duplicates too, so a replayed suffix moves the cursor when
// its events were dispatched live.
func (s *Subscriber) Delivered(origin jid.ID, seq uint64) {
	c := s.cursors[origin]
	if c == nil {
		c = new(cursor)
		s.cursors[origin] = c
	}
	c.deliver(seq)
}

// Gap takes a gap signal: origin's log retains first..last and nothing
// before first. A bounded gap above the cursor moves it up to first-1:
// waiting for what is gone would stall it and re-ask for the same
// suffix every epoch. One that ends below the mark says the log's
// numbering restarted under the cursor — the server replays all of it
// after the signal — so the cursor follows it down to first-1, and
// events of the new numbering are asked for by their own sequences.
// An unbounded gap (first 0, nothing retained) and a gap for an origin
// without a cursor move nothing. The caller reports every gap.
func (s *Subscriber) Gap(origin jid.ID, first, last uint64) {
	c := s.cursors[origin]
	switch {
	case c == nil || first == 0:
	case last < c.mark:
		*c = cursor{mark: first - 1}
	default:
		c.skip(first)
	}
}

// Epoch records that rdv granted a new lease: it knows nothing of what
// this subscriber received, and is owed the next round's requests.
func (s *Subscriber) Epoch(rdv jid.ID) { s.owed[rdv] = true }

// Round appends to out the requests owed — to each rendezvous, one for
// its own log (a zero cursor on first contact: everything retained),
// and under active/standby one per other origin a cursor is held for,
// which a standby serves from its copy of a dead primary's log — and
// owes them no more.
func (s *Subscriber) Round(out []Request) []Request {
	for rdv := range s.owed {
		delete(s.owed, rdv)
		out = append(out, Request{RDV: rdv, Origin: rdv, After: s.Mark(rdv)})
		for origin, c := range s.cursors {
			if origin != rdv && s.standby {
				out = append(out, Request{RDV: rdv, Origin: origin, After: c.mark})
			}
		}
	}
	return out
}

// Sent takes what became of a request to rdv: a request the transport
// refused is owed again, one without a lease waits for the next.
func (s *Subscriber) Sent(rdv jid.ID, r Result) {
	if r == Failed {
		s.owed[rdv] = true
	}
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

// Owed counts the rendezvous owed a round.
func (s *Subscriber) Owed() int { return len(s.owed) }

// Stream is what a log server holds of the stream a request names.
type Stream struct {
	Self        bool   // the server's own log numbered it
	Held        bool   // records of it are held: First..Last
	First, Last uint64 // the retained range
	// Replicates is set on a member of a replica set. Advertised and
	// Synced are what it learned from the others: a synced replica still
	// advertises the stream, and it has completed a first exchange.
	Replicates, Advertised, Synced bool
}

// Verdict is a server's answer to one request: a gap signal to send
// first, then the records after From, if Serve.
type Verdict struct {
	Gap         bool
	First, Last uint64 // what the gap says is retained, both 0 for nothing
	Tentative   bool   // the gap is provisional: the server has not synced yet
	Serve       bool
	From        uint64
}

// Serve decides how a log answers a request for the records of st after
// cursor. A server serves its own log, and a copy of another origin's
// under the origin's numbering — which makes a failover exactly-once.
// A replica-set member holding none of an origin's stream says the
// suffix is gone, unless a synced member still advertises it; a server
// outside the set serves nothing and signals nothing for it. A copy
// behind the cursor has nothing the requester lacks. A cursor past the
// own log's end means its numbering restarted: the gap bounds what is
// retained and all of it is served. A cursor behind retention gets the
// gap, then the retained suffix; a zero cursor asks for everything, and
// gets it without one.
func Serve(cursor uint64, st Stream) (v Verdict) {
	switch {
	case !st.Held && !st.Self:
		// A synced replica still advertising the stream means our copy
		// has not arrived yet: nothing is lost, and anti-entropy mirrors
		// it to the leased clients when it lands. Otherwise the suffix
		// is gone — provisionally so before a first digest exchange.
		v.Gap = st.Replicates && cursor > 0 && !st.Advertised
		v.Tentative = v.Gap && !st.Synced
		return v
	case !st.Held:
		v.Gap = cursor > 0 // the requester has history: the log restarted empty
		return v
	case cursor > st.Last:
		if !st.Self {
			return v // the cursor proves the copy's missing tail was delivered
		}
		v.Gap, v.First, v.Last, cursor = true, st.First, st.Last, 0
	case cursor > 0 && cursor+1 < st.First:
		v.Gap, v.First, v.Last = true, st.First, st.Last // retention dropped (cursor, First)
	}
	v.Serve, v.From = true, cursor
	return v
}
