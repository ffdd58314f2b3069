package engine

// replay.go drives the engine's half of the durable-delivery contract.
// Every decision is the recovery core's (rendezvous/recovery): each
// attachment keeps a recovery.Subscriber, and this file feeds it — the
// log coordinates a logging rendezvous stamps onto every event
// (rdv:Seq/rdv:LogSrc), duplicates too, and the range signals that
// answer its requests, which the peer's rendezvous service hands the
// attachment as its group's reader; the peer's lease grants, routed
// to the attachment of their group; and the rounds of a background
// loop, kicked when a window is due and ticking to ask again for one
// that stalled — and carries out what it decides: the replay requests,
// one window each, and a ReplayGapError for every loss.
// Replayed events come back through the ordinary delivery path: a
// replayed frame keeps its message ID, the event's, and the peer's
// rendezvous service drops what its hop filter has seen before the
// engine is handed it — at-least-once redelivery, exactly-once dispatch.

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"

	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/rendezvous"
	"github.com/tps-p2p/tps/internal/obs"
)

// ReplayGapError is dispatched to exception handlers when a rendezvous
// answered a replay request with a gap, or with a retained range that
// starts above the engine's cursor: events between the cursor and First
// were dropped by the log's retention (or the log restarted), so they
// are unrecoverable — an explicit loss report, never a silent one.
type ReplayGapError struct {
	// Path is the type path of the attachment whose group gapped.
	Path string
	// Topic is the log topic (the group parameter).
	Topic string
	// First and Last bound what the rendezvous still retains; both zero
	// when it retains nothing.
	First, Last uint64
	// Tentative is set when the signalling replica had not completed a
	// first anti-entropy exchange with its replica set: the range looks
	// lost from where it stands, but a replica it has not synced with
	// yet may still hold it — treat as possible, not proven, loss.
	Tentative bool
}

// Error implements error.
func (e *ReplayGapError) Error() string {
	qual := ""
	if e.Tentative {
		qual = " (tentative: replica not yet synced)"
	}
	if e.First == 0 && e.Last == 0 {
		return fmt.Sprintf("tps: replay gap on %s: nothing retained%s", e.Path, qual)
	}
	return fmt.Sprintf("tps: replay gap on %s: events before seq %d no longer retained (have %d..%d)%s",
		e.Path, e.First, e.First, e.Last, qual)
}

// Logged implements rendezvous.Reader: an event origin's log
// numbered seq was received in the attachment's group. A window that
// became due wakes the replay loop.
func (a *attachment) Logged(origin jid.ID, seq uint64) {
	a.recMu.Lock()
	due := a.rec.Delivered(origin, seq)
	a.recMu.Unlock()
	if due {
		a.e.kickReplay()
	}
}

// Answered implements rendezvous.Reader: the attachment takes the
// answer to a request, and its subscribers get a ReplayGapError if it
// is a loss.
func (a *attachment) Answered(r rendezvous.Range) {
	a.recMu.Lock()
	lost := a.rec.Answer(r.RDV, r.Origin, r.First, r.Last, r.Gap)
	a.recMu.Unlock()
	if lost {
		a.e.subs.dispatchError(a.e.reg, a.node, &ReplayGapError{Path: a.path, Topic: a.param, First: r.First, Last: r.Last, Tentative: r.Tentative})
	}
}

// epoch records that each of ids granted the attachment's group a new
// lease.
func (a *attachment) epoch(ids ...jid.ID) {
	a.recMu.Lock()
	defer a.recMu.Unlock()
	for _, id := range ids {
		a.rec.Epoch(id)
	}
}

// syncReplay sends the replay requests the attachment's round has due.
// One that cannot be sent is asked for again when its window stalls.
func (a *attachment) syncReplay(tick bool) {
	a.recMu.Lock()
	reqs := a.rec.Round(nil, tick)
	a.recMu.Unlock()
	for _, q := range reqs {
		if a.e.rdv.RequestReplay(q.RDV, a.param, q.Origin, q.After, q.Max) == nil {
			a.e.stats.replayRequests.Add(1)
		}
	}
}

// replayLoop sends the replay requests the attachments have due. It is
// woken by what can make one due or sendable — a lease grant, a new
// attachment, a first subscription, a cursor crossing the low-water
// mark of its window — and its ticker retries what a round could not
// send and asks again for a window that stalled.
func (e *Engine) replayLoop() {
	defer e.wg.Done()
	ticker := time.NewTicker(e.fint)
	defer ticker.Stop()
	for {
		tick := false
		select {
		case <-ticker.C:
			tick = true
		case <-e.wake:
		case <-e.stop:
			return
		}
		e.requestReplays(tick)
	}
}

// kickReplay wakes the replay loop.
func (e *Engine) kickReplay() {
	e.stats.replayKicks.Add(1)
	poke(e.wake)
}

// requestReplays runs one round over the attachments some subscription
// covers. A type only published here has nothing to catch up on, and a
// suffix replayed to an attachment no subscription covers is
// dispatched to nobody, marked in the hop filter and lost to the
// subscriber that arrives next — so what it is owed waits for that
// subscriber.
func (e *Engine) requestReplays(tick bool) {
	var room [dispatchRoom]*Subscription
	for _, a := range e.attachmentsTo("") {
		if len(e.subs.covering(e.reg, a.node.Type(), room[:0])) > 0 {
			a.syncReplay(tick)
		}
	}
}

// CursorsView lists the engine's replay cursors — the highest log
// sequence delivered per (group, origin rendezvous) — for the admin
// surface.
func (e *Engine) CursorsView() []obs.CursorEntry {
	var out []obs.CursorEntry
	for _, a := range e.attachmentsTo("") {
		a.recMu.Lock()
		a.rec.Marks(func(origin jid.ID, mark uint64) {
			out = append(out, obs.CursorEntry{Group: a.param, Origin: origin.String(), Seq: mark})
		})
		a.recMu.Unlock()
	}
	slices.SortFunc(out, func(x, y obs.CursorEntry) int {
		return cmp.Or(strings.Compare(x.Group, y.Group), strings.Compare(x.Origin, y.Origin))
	})
	return out
}

// onLease is the engine's lease listener: a new lease for a group, or
// for every group (""), starts an epoch of the attachments to it.
func (e *Engine) onLease(rdv jid.ID, group string) {
	for _, a := range e.attachmentsTo(group) {
		a.epoch(rdv)
		e.kickReplay()
		e.broadcast()
	}
}

// attachmentsTo lists the attachments to group, or all for "".
func (e *Engine) attachmentsTo(group string) []*attachment {
	e.mu.Lock()
	defer e.mu.Unlock()
	var atts []*attachment
	for _, a := range e.attachments {
		if group == "" || a.param == group {
			atts = append(atts, a)
		}
	}
	return atts
}
