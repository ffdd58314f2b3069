package rendezvous

// replay.go is the subscriber's half of the durability protocol: a
// peer that joined late or reconnected presents its last-delivered
// cursor with a replay request and receives the retained suffix as the
// original frames, resent verbatim — at-least-once, with the
// receive-side seen caches turning redelivery into exactly-once
// observable delivery. A cursor that fell behind retention gets an
// explicit gap signal instead of silent loss. The serving half is
// logserver.go.

import (
	"errors"
	"fmt"
	"strings"

	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/message"
)

// Replay message element names, namespace "rdv".
const (
	// elemSeq carries the per-topic log sequence a rendezvous assigned
	// to a propagated message.
	elemSeq = "Seq"
	// elemLogSrc carries the binary ID of the rendezvous whose log
	// numbered the message — cursors are only meaningful per origin.
	elemLogSrc = "LogSrc"
	// elemTopic names the topic (group parameter) of a replay request
	// or gap signal.
	elemTopic = "Topic"
	// elemCursor is the requester's last-delivered sequence; an explicit
	// zero is the late joiner's "everything retained".
	elemCursor = "Cursor"
	// elemFirst / elemLast bound the retained range in a gap signal.
	// elemFirst doubles as the server's retained head on sync records.
	elemFirst = "First"
	elemLast  = "Last"
	// elemTentative marks a gap signal sent before the sender completed
	// a first anti-entropy exchange: the range looks lost from here, but
	// an unsynced replica may yet hold it.
	elemTentative = "Tentative"
)

// Replay operations.
const (
	opReplay = "replay"
	opGap    = "gap"
)

// GapListener is notified when a replay request could not be served
// from the requested cursor: entries (cursor, first) were dropped by
// retention, or the server's log restarted. origin is the rendezvous
// whose log the gap is in; first and last bound what is still retained
// (both zero when nothing is). Receivers should advance their cursor
// for origin past the gap — those entries are unrecoverable. tentative
// is set when the signalling replica had not completed a first
// anti-entropy exchange, so its "nothing retained" verdict is
// provisional rather than proof of loss. The service tells every
// listener of every gap, whatever its group: a listener reads topic to
// find out whether the gap is its own. It runs on the transport's
// receive goroutine and must not block.
type GapListener func(origin jid.ID, topic string, first, last uint64, tentative bool)

// AddGapListener registers fn for the gap signals received in response
// to this peer's replay requests and returns the token that
// RemoveGapListener takes.
func (s *Service) AddGapListener(fn GapListener) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gapFns == nil {
		s.gapFns = make(map[int]GapListener, 1)
	}
	token := s.nextToken
	s.nextToken++
	s.gapFns[token] = fn
	return token
}

// RemoveGapListener drops the listener registered under token.
func (s *Service) RemoveGapListener(token int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.gapFns, token)
}

// ReplayInfo extracts the log coordinates a rendezvous stamped onto a
// propagated message: the origin peer whose log numbered it and the
// sequence it was assigned. ok is false for messages that never crossed
// a logging rendezvous. The lookup is allocation-free.
func ReplayInfo(msg *message.Message) (origin jid.ID, seq uint64, ok bool) {
	seq, found := msg.Uint64(elemNS, elemSeq)
	if !found {
		return jid.Nil, 0, false
	}
	origin, err := msg.GetID(elemNS, elemLogSrc)
	if err != nil {
		return jid.Nil, 0, false
	}
	return origin, seq, true
}

// ErrNoLease is returned by RequestReplay when this peer holds no lease
// with the target: there is nobody to ask until it grants one again.
var ErrNoLease = errors.New("rendezvous: no lease")

// RequestReplay asks the connected rendezvous target to resend the
// retained entries of topic that origin's log numbered after the
// cursor. origin is usually the target itself; after a failover it is
// the dead primary, and the target serves the request from its
// replicated copy of that log — the cursor stays meaningful because
// copies keep the origin's numbering. A target that neither is origin
// nor replicates it serves nothing: the numbering is not its own. A
// zero origin means the target. Replayed events arrive through the
// normal propagation path (and its dedupe); a gap signal arrives
// through the GapListener. The request is fire-and-forget, and nothing
// asks again while the lease holds: a replayed frame lost on the way
// stays lost until the next lease grant (LeaseListener) brings another
// request, so over a lossy link delivery is not at-least-once (ROADMAP
// item 1). The request goes in the topic's group, under a lease with
// the target that carries it.
func (s *Service) RequestReplay(target jid.ID, topic string, origin jid.ID, after uint64) error {
	s.mu.Lock()
	e := s.c.rdvs[leaseKey{target, topic}]
	if e == nil {
		e = s.c.rdvs[leaseKey{target, ""}]
	}
	var addr endpoint.Address
	if e != nil {
		addr = e.addr
	}
	s.mu.Unlock()
	if e == nil {
		return fmt.Errorf("%w with %v", ErrNoLease, target)
	}
	if origin.IsZero() {
		origin = target
	}
	req := s.newOp(opReplay, 3)
	req.AddString(elemNS, elemTopic, topic)
	req.AddUint64(elemNS, elemCursor, after)
	req.AddID(elemNS, elemLogSrc, origin)
	s.stats.replayRequests.Add(1)
	return s.ep.Send(addr, ServiceName, topic, req)
}

// handleGap dispatches a received gap signal to the listeners. The gap
// is attributed to the log origin it names — which, when a replica
// answers for a dead primary, is the primary rather than the sender —
// so cursor jumps land on the right origin.
func (s *Service) handleGap(msg *message.Message) {
	origin, err := msg.GetID(elemNS, elemLogSrc)
	first, okFirst := msg.Uint64(elemNS, elemFirst)
	last, okLast := msg.Uint64(elemNS, elemLast)
	if err != nil || !okFirst || !okLast {
		return
	}
	s.stats.replayGaps.Add(1)
	s.mu.Lock()
	fns := make([]GapListener, 0, len(s.gapFns))
	for _, fn := range s.gapFns {
		fns = append(fns, fn)
	}
	s.mu.Unlock()
	// The topic leaves in an error the application is handed and may
	// keep: a copy, not a piece of the frame.
	topic := strings.Clone(msg.Text(elemNS, elemTopic))
	tentative := msg.Text(elemNS, elemTentative) == "true"
	for _, fn := range fns {
		fn(origin, topic, first, last, tentative)
	}
}
