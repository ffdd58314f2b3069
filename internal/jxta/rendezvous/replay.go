package rendezvous

// replay.go is the subscriber's half of the durability protocol's
// wire: the log coordinates stamped on every logged event, the replay
// request that asks for the window after a cursor, and the range signal
// that answers it; the coordinates and the signal are handed to the one
// reader of their group (Read), a signal in no group, which answers a
// replica's sync pull, to the log server. What a subscriber asks for,
// and what it makes of an answer, is decided by the recovery core
// (recovery.Subscriber), which the engine drives; the serving half is
// logserver.go.

import (
	"fmt"

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
	// or range signal.
	elemTopic = "Topic"
	// elemCursor is the requester's last-delivered sequence; an explicit
	// zero is the late joiner's "everything retained". On a range signal
	// it is the cursor the window served starts after, absent when none
	// is served.
	elemCursor = "Cursor"
	// elemMax is how many records after the cursor a request asks for;
	// a server sends at most recovery.W, and none when it is absent.
	elemMax = "Max"
	// elemFirst / elemLast bound the retained range in a range signal.
	// elemFirst doubles as the server's retained head on sync records.
	elemFirst = "First"
	elemLast  = "Last"
	// elemGap marks a range signal that tells the requester it lost
	// records: its cursor is behind the range, or the log restarted.
	elemGap = "Gap"
	// elemTentative marks a gap sent before the sender completed a first
	// anti-entropy exchange: the range looks lost from here, but an
	// unsynced replica may yet hold it.
	elemTentative = "Tentative"
)

// Replay operations.
const (
	opReplay = "replay"
	opRange  = "range"
)

// Range is a log server's answer to one replay request: RDV retains
// First..Last of Origin's log, both zero when it retains nothing. Origin
// is the rendezvous whose log numbered the stream — after a failover a
// dead primary, not the sender. Gap is set when the request's cursor
// was behind First, or the log's numbering restarted: records the
// requester had not received are gone. Tentative qualifies a gap from a
// replica that had not completed a first anti-entropy exchange: its
// "nothing retained" is provisional, not proof of loss.
type Range struct {
	RDV, Origin    jid.ID
	First, Last    uint64
	Gap, Tentative bool
}

// ReplayInfo reads the log coordinates a rendezvous stamped onto a
// propagated frame through its view: the origin peer whose log numbered
// it and the sequence it was assigned. ok is false for frames that never
// crossed a logging rendezvous. The lookup is allocation-free.
func ReplayInfo(v *message.View) (origin jid.ID, seq uint64, ok bool) {
	seq, found := v.Uint64(elemNS, elemSeq)
	if !found {
		return jid.Nil, 0, false
	}
	origin, err := v.GetID(elemNS, elemLogSrc)
	if err != nil {
		return jid.Nil, 0, false
	}
	return origin, seq, true
}

// RequestReplay asks the connected rendezvous target to resend the
// retained entries of topic that origin's log numbered in (after,
// after+max]. origin is usually the target itself; after a failover it
// is the dead primary, and the target serves the request from its
// replicated copy of that log — the cursor stays meaningful because
// copies keep the origin's numbering. A target that neither is origin
// nor replicates it serves nothing: the numbering is not its own. A
// zero origin means the target. Replayed events arrive through the
// normal propagation path (and its hop filter), after a range signal:
// the group's Reader is told of each. The target keeps nothing of the
// request: whether and when to ask again, for the next window or for
// one that did not arrive, is the caller's (recovery.Subscriber). The
// request goes in the topic's group, under a lease with the target that
// carries it: without one, RequestReplay sends nothing and errs.
func (s *Service) RequestReplay(target jid.ID, topic string, origin jid.ID, after, max uint64) error {
	s.mu.Lock()
	var addr endpoint.Address
	if e := s.c.rdvs[target]; e != nil && covers(e.groups, topic) {
		addr = e.addr
	}
	s.mu.Unlock()
	if addr == "" {
		return fmt.Errorf("rendezvous: no lease with %v", target)
	}
	if origin.IsZero() {
		origin = target
	}
	s.stats.replayRequests.Add(1)
	return s.ep.Send(addr, ServiceName, topic, s.windowOp(opReplay, topic, origin, after, max))
}

// windowOp builds a ranged read, a replay request or a sync pull: an op
// naming the window (after, after+max] of origin's log for topic.
func (s *Service) windowOp(op, topic string, origin jid.ID, after, max uint64) *message.Message {
	m := s.newOp(op, 4)
	m.AddString(elemNS, elemTopic, topic)
	m.AddUint64(elemNS, elemCursor, after)
	m.AddUint64(elemNS, elemMax, max)
	m.AddID(elemNS, elemLogSrc, origin)
	return m
}

// handleRange hands a received range signal to the reader of its
// group. The range is attributed to the log origin it names — which,
// when a replica answers for a dead primary, is the primary rather than
// the sender — so cursor jumps land on the right origin. On a log
// server a signal in no group answers a sync pull: it is the log
// server's, never a reader's, and never counted as a gap.
func (s *Service) handleRange(msg *message.Message, from endpoint.Address) {
	if _, group, _ := endpoint.Destination(msg); group == "" && s.logs != nil {
		s.logs.handleSyncRange(msg, from)
		return
	}
	origin, err := msg.GetID(elemNS, elemLogSrc)
	first, okFirst := msg.Uint64(elemNS, elemFirst)
	last, okLast := msg.Uint64(elemNS, elemLast)
	r := s.reader(msg.Text(elemNS, elemTopic))
	if err != nil || !okFirst || !okLast || r == nil {
		return
	}
	rg := Range{RDV: msg.Src, Origin: origin, First: first, Last: last,
		Gap: msg.Text(elemNS, elemGap) == "true", Tentative: msg.Text(elemNS, elemTentative) == "true"}
	if rg.Gap {
		s.stats.replayGaps.Add(1)
	}
	r.Answered(rg)
}
