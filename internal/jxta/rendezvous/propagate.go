package rendezvous

// propagate.go is the per-message path: injecting a message into the
// mesh, receiving one and handing it to its group's reader, forwarding
// it, and the send-side failure accounting that feeds the detector.

import (
	"errors"
	"fmt"
	"slices"
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
	self := s.ep.PeerID()
	if !msg.Stamp(self) {
		return nil // TTL exhausted before leaving the peer
	}
	s.Number(msg, dparam)
	s.hops.observe(msg.ID, msg.Src)
	msg.ReplaceText(elemNS, elemOp, opProp)
	msg.ReplaceText(elemNS, elemDSvc, dsvc)
	msg.ReplaceText(elemNS, elemDParam, dparam)
	write := func(seq uint64) ([]byte, error) {
		if seq > 0 {
			msg.ReplaceUint64(elemNS, elemSeq, seq)
			msg.ReplaceID(elemNS, elemLogSrc, self)
		}
		return s.ep.EncodeFrame(ServiceName, dparam, msg, envelope...)
	}
	frame := s.logged(dparam, write)
	s.traceForward(msg.Bytes(trace.ElemNS, trace.ElemName), func() []jid.ID { return msg.Path })
	attempted, failed := s.fanOut(dparam, jid.Nil, msg.Visited, frame, write)
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
	// through, decoded. The message is the reader's to keep and to
	// change: a rendezvous forwards the frame it was decoded from, which
	// nobody writes.
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
// rendezvous then forwards. It reads the frame through its view and
// decodes it for the group's reader alone: a rendezvous the group has
// no reader on forwards the bytes it received and builds no message.
func (s *Service) handleProp(v *message.View, from endpoint.Address) {
	fresh := s.hops.observe(v.ID(), v.Src())
	group := v.Text(elemNS, elemDParam)
	r := s.reader(group)
	if r != nil {
		if origin, seq, ok := ReplayInfo(v); ok {
			r.Logged(origin, seq)
		}
	}
	if !fresh {
		s.stats.duplicates.Add(1)
		return
	}
	if v.Text(elemNS, elemDSvc) == "" {
		return
	}
	if r != nil {
		r.Deliver(v.Message(), from)
		s.stats.delivered.Add(1)
	}
	// Forward deeper into the mesh. Edge peers terminate propagation;
	// only rendezvous fan out.
	if s.cfg.Role == RoleRendezvous {
		s.forward(v, group)
	}
}

// forward sends the frame v views on into the mesh, as this peer's hop
// of it: every target gets the frame message.Forward writes from v's
// bytes — on a durable peer, stamped with the log coordinates it was
// stored under — and the publisher and the peers on the frame's path
// get nothing. A frame whose TTL is spent, or that crossed this peer
// already, goes no further.
func (s *Service) forward(v *message.View, group string) {
	self := s.ep.PeerID()
	if v.TTL() == 0 || v.Visited(self) {
		return
	}
	write := func(seq uint64) ([]byte, error) {
		if seq == 0 {
			return s.ep.Forward(ServiceName, group, *v)
		}
		st := stampPool.Get().(*logStamps)
		defer stampPool.Put(st)
		return s.ep.Forward(ServiceName, group, *v, s.logs.stamps(st, seq)...)
	}
	frame := s.logged(group, write)
	s.traceForward(v.Bytes(trace.ElemNS, trace.ElemName), func() []jid.ID { return append(v.AppendPath(nil), self) })
	s.fanOut(group, v.Src(), v.Visited, frame, write)
}

// traceForward archives this peer's forward hop of a frame whose trace
// element is trc, with the path the frame crossed to get here, this peer
// last. path is called for a traced frame on a peer that keeps traces
// alone.
func (s *Service) traceForward(trc []byte, path func() []jid.ID) {
	if s.cfg.Tracer == nil {
		return
	}
	if ev, sentUS, ok := trace.Decode(trc); ok {
		s.cfg.Tracer.Record(ev, trace.StageForward, s.ep.PeerID(), sentUS, path())
	}
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
	sent   uint8 // what fanOut's send to it did: sentOK, sentFailed, or 0 for none
}

// The outcomes of a fan-out's send to a target.
const (
	sentOK uint8 = iota + 1
	sentFailed
)

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
			*l = append(*l, target{id: m.id, addr: m.client.addr, client: true})
		case m.rdv != nil && !now.After(m.rdv.expires):
			*l = append(*l, target{id: m.id, addr: m.rdv.addr})
		}
	}
	s.mu.Unlock()
	return l
}

// logged is the durable step Propagate and forward share. A message a
// peer sends into a group is numbered and persisted under the peer's
// own log before it leaves, so a subscriber that is offline right now
// can replay it later: a forwarded one is numbered again, because
// cursors are per origin and this rendezvous is an origin for its
// subscribers. write writes the frame, stamped with the log sequence
// it is given — 0 for none, log sequences count from 1 — and logged
// returns the frame it stored, the frame the targets get. Elsewhere it
// returns nil: on a peer without a log, and in the net group, which
// carries leases and, for an application that runs discovery there,
// queries and advertisements — none of it an event or worth replaying.
func (s *Service) logged(group string, write func(seq uint64) ([]byte, error)) []byte {
	if s.logs == nil || group == netGroup {
		return nil
	}
	return s.logs.append(group, write)
}

// fanOut is the sending step Propagate and forward share: it sends the
// frame — the one logged stored, or else what write(0) writes at the
// first target — to every connected peer in the group except the
// message's publisher (except) and any peer visited finds on its path.
// It returns how many sends were attempted and how many of those
// failed, so callers can tell "nobody to send to" apart from "everybody
// unreachable". Failed sends feed the suspect/evict failure accounting.
func (s *Service) fanOut(group string, except jid.ID, visited func(jid.ID) bool, frame []byte, write func(seq uint64) ([]byte, error)) (attempted, failed int) {
	s.stats.propagated.Add(1)
	now := s.now()
	tl := s.targets(group, now)
	defer targetPool.Put(tl)

	// Write once: every target receives the identical frame, so the
	// envelope-and-encode work must not be repeated per peer.
	for i := range *tl {
		t := &(*tl)[i]
		if t.id == except || visited(t.id) {
			continue
		}
		if frame == nil {
			var err error
			if frame, err = write(0); err != nil {
				return 0, 0
			}
		}
		attempted++
		t.sent = sentOK
		if err := s.ep.SendFrame(t.addr, frame); err != nil {
			// Unreachable peers age out via lease expiry; the failure
			// accounting gets them suspected, probed and evicted sooner.
			failed++
			s.stats.sendFailures.Add(1)
			t.sent = sentFailed
		}
	}
	if frame != nil {
		endpoint.RecycleFrame(frame)
	}
	if attempted > 0 {
		s.settle(now, *tl)
	}
	return attempted, failed
}

// settle feeds the core the outcome of one fan-out's sends, the
// successes and then the failures, as apply would one by one, under
// one hold of the lock: a send that arrived is proof of life for its
// address, a failed one counts towards its suspicion. What the core
// decides — a failure's probe — is sent after the fan-out's own sends,
// so a probe does not distort the fan-out's accounting. A send's
// outcome starts no lease epoch, so no listener is told of one.
func (s *Service) settle(now time.Time, tl []target) {
	var buf [8]output
	outs := buf[:0]
	s.mu.Lock()
	for _, want := range []uint8{sentOK, sentFailed} {
		for _, t := range tl {
			if t.sent == want {
				outs = s.c.step(now, input{kind: inSent, from: t.addr, failed: want == sentFailed}, outs)
			}
		}
	}
	if slices.ContainsFunc(tl, func(t target) bool { return t.sent == sentFailed }) {
		s.conn.Broadcast()
	}
	s.mu.Unlock()
	s.carryOut(now, outs, nil)
}
