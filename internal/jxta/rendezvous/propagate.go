package rendezvous

// propagate.go is the per-message path: injecting a message into the
// mesh, receiving one and handing it to its group's reader, forwarding
// it, and the send-side failure accounting that feeds the detector.

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/message"
	"github.com/tps-p2p/tps/internal/obs/trace"
)

// Propagate fans msg out into the mesh, addressed to the (dsvc, dparam)
// service on every reachable peer in the group dparam names. dparam
// also scopes the fan-out and, on a durable rendezvous, names the log
// topic: the service carries every group's traffic and tells the groups
// apart by it. The local peer is NOT delivered to — callers
// decide whether to loop back. Returns ErrNoPeers if there was nobody
// to send to.
//
// A message ID names one injection into one group: Propagate numbers
// msg in this peer's stream of the group (Number) unless it already
// carries that stream's ID, and records the number in the hop filter,
// so the mesh's echo of it is dropped. The filter keeps the sequences
// it has seen of each (publisher, stream), so the same content sent
// into two groups is two messages, each of its group's stream.
//
// Propagate takes msg: the caller gives it away and must not read,
// change or send it again. Propagate stamps it — the path and TTL of
// this hop and, on a durable rendezvous, its log sequence — and writes
// where it is going, rdv:Op/DSvc/DParam, into it as elements, which a
// message New built has the room for, so sending it costs no copy.
// Whatever envelope the calling layer adds is written into the frame
// (endpoint.EncodeFrame). A caller that goes on reading the message —
// one that has also handed it to a local reader — passes a Dup, which
// shares its elements.
func (s *Service) Propagate(msg *message.Message, dsvc, dparam string, envelope ...message.Field) error {
	if !msg.Stamp(s.ep.PeerID()) {
		return nil // TTL exhausted before leaving the peer
	}
	s.Number(msg, dparam)
	s.hops.observe(msg)
	msg.ReplaceText(elemNS, elemOp, opProp)
	msg.ReplaceText(elemNS, elemDSvc, dsvc)
	msg.ReplaceText(elemNS, elemDParam, dparam)
	attempted, failed := s.fanOut(msg, jid.Nil, dparam, envelope...)
	if attempted == 0 {
		return ErrNoPeers
	}
	if failed == attempted {
		return fmt.Errorf("%w (%d peers)", ErrAllSendsFailed, failed)
	}
	return nil
}

// Reader reads the propagated frames of one group on this peer: the
// paper's TPSPipeReader over TPSMyInputPipe. A group has one reader
// (Read), and its frames reach it through the hop filter alone. Its
// methods run on the transport's receive goroutine and must not block.
type Reader interface {
	// Deliver is handed each frame of the group the hop filter lets
	// through. The message is the reader's to keep, and shared: a
	// rendezvous forwards a Dup of it, which shares its elements, so
	// the reader must not write it.
	Deliver(msg *message.Message, from endpoint.Address)
	// Logged is told the log coordinates of every logged frame of the
	// group, a duplicate the hop filter drops included: the replayed
	// copy of an event that arrived live is what moves a cursor into
	// the replaying log.
	Logged(origin jid.ID, seq uint64)
	// Answered is handed each range signal that answers a replay
	// request in the group.
	Answered(Range)
}

// DeliverFunc is the Reader of a group nobody replays: it is handed the
// group's frames and ignores log coordinates and range signals.
type DeliverFunc func(msg *message.Message, from endpoint.Address)

// Deliver implements Reader.
func (f DeliverFunc) Deliver(msg *message.Message, from endpoint.Address) { f(msg, from) }

// Logged implements Reader.
func (DeliverFunc) Logged(jid.ID, uint64) {}

// Answered implements Reader.
func (DeliverFunc) Answered(Range) {}

// Errors Read returns.
var (
	ErrDupReader = errors.New("rendezvous: group already has a reader")
	ErrClosed    = errors.New("rendezvous: service closed")
)

// Read makes r the reader of group; nil removes the group's reader. A
// group has one reader: a second is refused with ErrDupReader, and a
// closed service refuses every reader.
func (s *Service) Read(group string, r Reader) error {
	s.rmu.Lock()
	defer s.rmu.Unlock()
	switch {
	case r == nil:
		delete(s.readers, group)
	case s.readers == nil:
		return ErrClosed
	case s.readers[group] != nil:
		return fmt.Errorf("%w: %s", ErrDupReader, group)
	default:
		s.readers[group] = r
	}
	return nil
}

// reader returns group's reader, nil if none.
func (s *Service) reader(group string) Reader {
	s.rmu.RLock()
	r := s.readers[group]
	s.rmu.RUnlock()
	return r
}

// handleProp is the hop filter and what follows it, with one lookup of
// the frame's group reader: the reader is told the frame's log
// coordinates, a duplicate's too, and is handed a fresh frame, which a
// rendezvous then forwards.
func (s *Service) handleProp(msg *message.Message, from endpoint.Address) {
	fresh := s.hops.observe(msg)
	dparam := msg.Text(elemNS, elemDParam)
	r := s.reader(dparam)
	if origin, seq, ok := ReplayInfo(msg); ok && r != nil {
		r.Logged(origin, seq)
	}
	if !fresh {
		s.stats.duplicates.Add(1)
		return
	}
	if msg.Text(elemNS, elemDSvc) == "" {
		return
	}
	if r != nil {
		r.Deliver(msg, from)
		s.stats.delivered.Add(1)
	}
	// Forward deeper into the mesh. Edge peers terminate propagation;
	// only rendezvous fan out.
	if s.cfg.Role != RoleRendezvous {
		return
	}
	// A message is shared only once a reader has it: then the hop stamps
	// a COW Dup, which copies just the path/TTL state. Otherwise nothing
	// else holds what the endpoint decoded for this call, and the hop
	// stamps the message itself.
	fwd := msg
	if r != nil {
		fwd = msg.Dup()
	}
	if !fwd.Stamp(s.ep.PeerID()) {
		return
	}
	s.fanOut(fwd, msg.Src, dparam)
}

// netGroup is the net group's endpoint parameter.
var netGroup = jid.NetGroup.String()

// target is one peer a frame of a group goes to, at the address of a
// live lease of its that carries the group: the one it holds with us as
// a client (client), or else ours with it.
type target struct {
	id     jid.ID
	addr   endpoint.Address
	client bool
}

// targetPool holds the scratch a fan-out copies its targets into, so a
// frame pays no allocation for them.
var targetPool = sync.Pool{New: func() any { return new([]target) }}

// targets copies the targets of group at now from the list the core
// keeps — the peers leased to us for it and the rendezvous we hold a
// lease for it with, each once — into scratch from targetPool, which
// the caller puts back. The list moves with the tables, not with time:
// a lapsed lease is skipped here.
func (s *Service) targets(group string, now time.Time) *[]target {
	l := targetPool.Get().(*[]target)
	*l = (*l)[:0]
	s.mu.Lock()
	from, named := s.c.lists[group]
	if !named {
		from = s.c.lists[""]
	}
	for _, m := range from {
		switch {
		case m.client != nil && !now.After(m.client.expires):
			*l = append(*l, target{m.id, m.client.addr, true})
		case m.rdv != nil && !now.After(m.rdv.expires):
			*l = append(*l, target{m.id, m.rdv.addr, false})
		}
	}
	s.mu.Unlock()
	return l
}

// fanOut is the forwarding step Propagate and handleProp share: it logs
// the stamped message (durable peers), archives its trace hop, and sends
// it — with the envelope fields of the layer that propagated it, if any
// — to every connected peer in the given group except
// the one it came from and any peer already on its path. It returns how
// many sends were attempted and how many of those failed, so callers can
// tell "nobody to send to" apart from "everybody unreachable". Failed
// sends feed the suspect/evict failure accounting.
func (s *Service) fanOut(msg *message.Message, except jid.ID, param string, envelope ...message.Field) (attempted, failed int) {
	// Durable path: number and persist the message under this peer's own
	// log before it leaves, so a subscriber that is offline right now can
	// replay it later. A forwarded message is re-numbered: cursors are per
	// origin, and this rendezvous is now an origin for its subscribers.
	// The frame it stored is the frame the targets below get.
	// The net group carries leases and, for an application that runs
	// discovery there, queries and advertisements: none of it is an event
	// or worth replaying, so it is never logged.
	var frame []byte
	if s.logs != nil && param != netGroup {
		frame = s.logs.append(msg, param, envelope)
	}
	// Archive a forward-stage hop for messages carrying a trace element:
	// the stamped Path at this moment shows exactly which peers the frame
	// crossed to get here. Untraced messages cost a single
	// allocation-free element scan.
	if s.cfg.Tracer != nil {
		if ev, sentUS, ok := trace.Info(msg); ok {
			s.cfg.Tracer.Record(ev, trace.StageForward, s.ep.PeerID(), sentUS, msg.Path)
		}
	}
	s.stats.propagated.Add(1)

	now := s.now()
	tl := s.targets(param, now)
	defer targetPool.Put(tl)

	// Marshal once: every target receives the identical frame, so the
	// envelope-and-encode work must not be repeated per peer.
	var failures []endpoint.Address
	for _, t := range *tl {
		if t.id == except || msg.Visited(t.id) {
			continue
		}
		if frame == nil {
			var err error
			if frame, err = s.ep.EncodeFrame(ServiceName, param, msg, envelope...); err != nil {
				return 0, 0
			}
		}
		attempted++
		if err := s.ep.SendFrame(t.addr, frame); err != nil {
			// Unreachable peers age out via lease expiry; the failure
			// accounting gets them suspected, probed and evicted sooner.
			failed++
			s.stats.sendFailures.Add(1)
			failures = append(failures, t.addr)
			continue
		}
		s.apply(now, input{kind: inSent, from: t.addr})
	}
	if frame != nil {
		endpoint.RecycleFrame(frame)
	}
	// Account failures, and probe, outside the send loop: a probe is
	// itself a send and must not distort this fan-out's accounting.
	for _, addr := range failures {
		s.apply(now, input{kind: inSent, from: addr, failed: true})
	}
	return attempted, failed
}
