package engine

// replay.go is the engine's half of the durable-delivery contract: the
// per-attachment replay cursors (the highest log sequence delivered per
// origin rendezvous, recovered from the rdv:Seq/rdv:LogSrc elements a
// logging rendezvous stamps onto every event) and the background loop
// that presents those cursors to a rendezvous whenever it grants the
// attachment's group a new lease. Replayed events come back through the
// ordinary delivery path, where the engine's dedupe cache
// suppresses what was already observed — at-least-once redelivery,
// exactly-once dispatch.

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/rendezvous"
	"github.com/tps-p2p/tps/internal/obs"
)

// ReplayGapError is dispatched to exception handlers when a rendezvous
// answered a replay request with a gap signal: events between the
// engine's cursor and First were dropped by the log's retention (or the
// log restarted), so they are unrecoverable — an explicit loss report,
// never a silent one.
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
	return fmt.Sprintf("tps: replay gap on %s: events before seq %d no longer retained (have %d..%d)%s",
		e.Path, e.First, e.First, e.Last, qual)
}

// maxPendingSeqs bounds the out-of-order set per origin. Entries beyond
// the cap are simply not recorded; a later replay refetches them, so
// the bound costs extra redelivery under extreme loss, never data.
const maxPendingSeqs = 4096

// cursorState tracks one origin's delivery progress. The cursor is the
// highest CONTIGUOUS sequence delivered — not the highest seen. On a
// lossy link a replayed suffix arrives with holes; presenting the
// maximum would skip those holes forever, while the contiguous cursor
// makes the next re-request refetch them (dedupe absorbs the rest).
type cursorState struct {
	seq     uint64
	pending map[uint64]bool // delivered above a hole, awaiting refetch
}

// noteCursor records that an event numbered seq by origin's log was
// observed on this attachment. Called for every delivery carrying log
// coordinates — including duplicates, so a replayed suffix advances the
// cursor even when the events themselves were already dispatched.
func (a *attachment) noteCursor(origin jid.ID, seq uint64) {
	a.curMu.Lock()
	defer a.curMu.Unlock()
	if a.cursors == nil {
		a.cursors = make(map[jid.ID]*cursorState, 2)
	}
	st := a.cursors[origin]
	if st == nil {
		st = &cursorState{}
		a.cursors[origin] = st
	}
	switch {
	case seq <= st.seq:
	case seq == st.seq+1:
		st.seq = seq
		for st.pending[st.seq+1] {
			delete(st.pending, st.seq+1)
			st.seq++
		}
	default:
		if st.pending == nil {
			st.pending = make(map[uint64]bool)
		}
		if len(st.pending) < maxPendingSeqs {
			st.pending[seq] = true
		}
	}
}

// jumpCursor advances origin's cursor floor past a replay gap: entries
// up to first-1 are unrecoverable, so waiting for them would stall the
// contiguous cursor forever and re-replay the same suffix every round.
func (a *attachment) jumpCursor(origin jid.ID, first uint64) {
	if first == 0 {
		return
	}
	a.curMu.Lock()
	defer a.curMu.Unlock()
	st := a.cursors[origin]
	if st == nil || st.seq+1 >= first {
		return
	}
	st.seq = first - 1
	for st.pending[st.seq+1] {
		delete(st.pending, st.seq+1)
		st.seq++
	}
}

// cursor returns the attachment's cursor for one origin (tests).
func (a *attachment) cursor(origin jid.ID) uint64 {
	a.curMu.Lock()
	defer a.curMu.Unlock()
	if st := a.cursors[origin]; st != nil {
		return st.seq
	}
	return 0
}

// oweReplay records that the attachment's group holds a new lease with
// each of ids: the start of a connection epoch, in which that rendezvous
// has to be told where this peer's cursors stand.
func (a *attachment) oweReplay(ids ...jid.ID) {
	a.curMu.Lock()
	defer a.curMu.Unlock()
	if a.owed == nil {
		a.owed = make(map[jid.ID]struct{}, 2)
	}
	for _, id := range ids {
		a.owed[id] = struct{}{}
	}
}

// syncReplay sends this epoch's replay requests to every rendezvous
// still owed them: one request per known log origin — the rendezvous's
// own log (zero cursor on first contact: a late joiner asking for the
// full retained suffix) plus every other origin a cursor is held for.
// The extra origins are what make failover exactly-once observable:
// after re-homing to a standby, the dead primary's cursor is presented
// to the standby, which serves the missing suffix from its replicated
// copy under the primary's own numbering. A rendezvous the transport
// refused a request for stays owed, and the next round asks again; one
// whose lease is gone is owed nothing until it grants another.
func (a *attachment) syncReplay(e *Engine) {
	rdv := e.rdv
	a.curMu.Lock()
	defer a.curMu.Unlock()
	for id := range a.owed {
		var failed error
		request := func(origin jid.ID, after uint64) {
			if err := rdv.RequestReplay(id, a.param, origin, after); err != nil {
				failed = err
				return
			}
			e.stats.replayRequests.Add(1)
		}
		var selfAfter uint64
		if st := a.cursors[id]; st != nil {
			selfAfter = st.seq
		}
		request(id, selfAfter)
		// Foreign-origin cursors only matter after a failover: the
		// standby serves the dead primary's stream from its replicated
		// copy. In mesh mode (several independent durable rendezvous) a
		// rendezvous that is no replica of the origin serves nothing
		// for a foreign cursor — the self-origin request just sent is
		// what catches a re-homed subscriber up — so fan them out in
		// active/standby mode only.
		if rdv.Config().ActiveStandby {
			for origin, st := range a.cursors {
				if origin != id {
					request(origin, st.seq)
				}
			}
		}
		if failed == nil || errors.Is(failed, rendezvous.ErrNoLease) {
			delete(a.owed, id)
		}
	}
}

// replayLoop sends the replay requests the attachments owe. It is woken
// by what can make one due or sendable — a lease grant, a new
// attachment, a first subscription — and its ticker retries what a
// round could not send.
func (e *Engine) replayLoop() {
	defer e.wg.Done()
	ticker := time.NewTicker(e.fint)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
		case <-e.wake:
		case <-e.stop:
			return
		}
		e.requestReplays()
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
// dispatched to nobody, marked in dedupe and lost to the subscriber
// that arrives next — so what it is owed waits for that subscriber.
func (e *Engine) requestReplays() {
	e.mu.Lock()
	atts := e.attachmentList()
	e.mu.Unlock()
	var room [dispatchRoom]*Subscription
	for _, a := range atts {
		if len(e.subs.covering(e.reg, a.node.Type(), room[:0])) > 0 {
			a.syncReplay(e)
		}
	}
}

// CursorsView lists the engine's replay cursors — the highest log
// sequence delivered per (group, origin rendezvous) — for the admin
// surface.
func (e *Engine) CursorsView() []obs.CursorEntry {
	e.mu.Lock()
	atts := e.attachmentList()
	e.mu.Unlock()
	var out []obs.CursorEntry
	for _, a := range atts {
		a.curMu.Lock()
		for origin, st := range a.cursors {
			out = append(out, obs.CursorEntry{
				Group:  a.param,
				Origin: origin.String(),
				Seq:    st.seq,
			})
		}
		a.curMu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Group != out[j].Group {
			return out[i].Group < out[j].Group
		}
		return out[i].Origin < out[j].Origin
	})
	return out
}

// onGapSignal turns a rendezvous gap signal for the attachment's group
// into a ReplayGapError for its subscribers, and advances the cursor
// floor so the next replay round asks from the retained range instead
// of re-pulling the same suffix forever. The peer's one service hears
// every group's gaps; the others' are not this attachment's.
func (e *Engine) onGapSignal(a *attachment) rendezvous.GapListener {
	return func(origin jid.ID, topic string, first, last uint64, tentative bool) {
		if topic != a.param {
			return
		}
		a.jumpCursor(origin, first)
		e.subs.dispatchError(e.reg, a.node, &ReplayGapError{Path: a.path, Topic: topic, First: first, Last: last, Tentative: tentative})
	}
}
