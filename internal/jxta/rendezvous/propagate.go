package rendezvous

// propagate.go is the per-message path: injecting a message into the
// mesh, receiving one and handing it to its group's reader, forwarding
// it, and the send-side failure accounting that feeds the detector.

import (
	"errors"
	"fmt"
	"slices"
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
	// Deliver is handed a view of each frame of the group the hop
	// filter lets through. The view is lent for the call: a reader keeps
	// nothing of it — no string or slice it handed out — past the call,
	// and one that keeps the message calls v.Message(), which is the
	// reader's to keep and to change. A rendezvous forwards the frame
	// after the call, from the bytes it received, which nobody writes.
	Deliver(v message.View, from endpoint.Address)
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
// group's frames decoded, each message its to keep, and ignores log
// coordinates and range signals.
type DeliverFunc func(msg *message.Message, from endpoint.Address)

// Deliver implements Reader: it decodes the frame v views.
func (f DeliverFunc) Deliver(v message.View, from endpoint.Address) { f(v.Message(), from) }

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
// coordinates, a duplicate's too, and is handed a view of a fresh
// frame, which a rendezvous then forwards. Nothing here decodes the
// frame: it is read through its view, by the hop and by the reader,
// which decodes what it reads itself, and a rendezvous forwards the
// bytes it received.
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
		r.Deliver(*v, from)
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

// target is one peer a frame of a group goes to: its leases that carry
// the group — the one it holds with us as a client and ours with it —
// as the core held them when the driver published the lists.
type target struct {
	id          jid.ID
	client, rdv route // the zero route is no lease
}

// route is where a lease sends a frame, and until when.
type route struct {
	addr    endpoint.Address
	expires time.Time
}

func (r route) live(now time.Time) bool { return !now.After(r.expires) }

// to is the address a fan-out at now sends a frame to t at: its client
// lease's while that is live, or else ours with it. ok is false when
// neither is, and for the frame's publisher (except) and a peer on its
// path (visited).
func (t *target) to(now time.Time, except jid.ID, visited func(jid.ID) bool) (addr endpoint.Address, ok bool) {
	r := t.client
	if !r.live(now) {
		r = t.rdv
	}
	if !r.live(now) || t.id == except || visited(t.id) {
		return "", false
	}
	return r.addr, true
}

// targetLists is the fan-out's targets of every group some lease names,
// and under "" every other group's: the core's lists, each member with
// the address and expiry of its leases. The driver publishes them
// (Service.fan), and nobody changes a published one.
type targetLists map[string][]target

// targets returns the targets of group — the peers leased to us for it
// and the rendezvous we hold a lease for it with, each once — from the
// lists the driver published: the per-frame path takes no lock of the
// control core's, but after a step that marked the lists stale, once.
// The lists move with the tables, not with time: the caller skips a
// lapsed lease.
func (s *Service) targets(group string) []target {
	if s.stale.Load() {
		s.publishTargets()
	}
	lists := *s.fan.Load()
	l, named := lists[group]
	if !named {
		l = lists[""]
	}
	return l
}

// publishTargets copies the core's lists into new targetLists, one
// array for every group's, and publishes them, unless another fan-out
// did since the step that marked them stale.
func (s *Service) publishTargets() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.stale.Load() {
		return
	}
	n := 0
	for _, l := range s.c.lists {
		n += len(l)
	}
	all := make([]target, 0, n)
	lists := make(targetLists, len(s.c.lists))
	for g, l := range s.c.lists {
		at := len(all)
		for _, m := range l {
			t := target{id: m.id}
			if m.client != nil {
				t.client = route{m.client.addr, m.client.expires}
			}
			if m.rdv != nil {
				t.rdv = route{m.rdv.addr, m.rdv.expires}
			}
			all = append(all, t)
		}
		lists[g] = all[at:len(all):len(all)]
	}
	s.fan.Store(&lists)
	s.stale.Store(false)
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
	tl := s.targets(group)
	var buf [4]endpoint.Address
	fails := buf[:0] // the addresses whose sends failed, for settle

	// Write once: every target receives the identical frame, so the
	// envelope-and-encode work must not be repeated per peer.
	for i := range tl {
		addr, ok := tl[i].to(now, except, visited)
		if !ok {
			continue
		}
		if frame == nil {
			var err error
			if frame, err = write(0); err != nil {
				return 0, 0
			}
		}
		attempted++
		if err := s.ep.SendFrame(addr, frame); err != nil {
			// Unreachable peers age out via lease expiry; the failure
			// accounting gets them suspected, probed and evicted sooner.
			s.stats.sendFailures.Add(1)
			fails = append(fails, addr)
		}
	}
	if frame != nil {
		endpoint.RecycleFrame(frame)
	}
	if attempted > 0 && (len(fails) > 0 || s.watched.Load() > 0) {
		s.settle(now, tl, except, visited, fails)
	}
	return attempted, len(fails)
}

// settle feeds the core the outcome of one fan-out's sends to tl at now
// — to each target fanOut sent to, of which those at fails failed — the
// arrivals and then the failures, as apply would one by one, under one
// hold of the lock: an arrival is proof of life for its address, a
// failure counts towards its suspicion. An arrival at an address the
// detector holds nothing for is the identity of the core, so fanOut
// calls settle only when a send failed or the detector holds an entry
// (Service.watched), and settle steps arrivals only in the latter case.
// What the core decides — a failure's probe — is sent after the
// fan-out's own sends, so a probe does not distort the fan-out's
// accounting. A send's outcome starts no lease epoch, so no listener is
// told of one.
func (s *Service) settle(now time.Time, tl []target, except jid.ID, visited func(jid.ID) bool, fails []endpoint.Address) {
	var buf [8]output
	outs := buf[:0]
	s.mu.Lock()
	if len(s.c.det) > 0 {
		for i := range tl {
			if addr, ok := tl[i].to(now, except, visited); ok && !slices.Contains(fails, addr) {
				outs = s.step(now, input{kind: inSent, from: addr}, outs)
			}
		}
	}
	for _, addr := range fails {
		outs = s.step(now, input{kind: inSent, from: addr, failed: true}, outs)
	}
	if len(fails) > 0 {
		s.conn.Broadcast()
	}
	s.mu.Unlock()
	s.carryOut(now, outs, nil)
}
