package rendezvous

// propagate.go is the per-message path: injecting a message into the
// mesh, receiving and forwarding one, and the send-side failure
// accounting that feeds the detector.

import (
	"fmt"
	"sync"

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
// A message ID names one injection into one group. A peer keeps one
// duplicate cache for every group it is in, so a caller that sends the
// same content into two groups gives each copy its own ID.
//
// msg is only read. Where it is going — rdv:Op/DSvc/DParam, and whatever
// envelope the calling layer adds — is written into the frame
// (endpoint.EncodeFrame), not into a copy; the one Dup, which shares the
// caller's elements, is there to be stamped: the path and TTL of this
// hop and, on a durable rendezvous, its log sequence.
func (s *Service) Propagate(msg *message.Message, dsvc, dparam string, envelope ...message.Field) error {
	out := msg.Dup()
	if !out.Stamp(s.ep.PeerID()) {
		return nil // TTL exhausted before leaving the peer
	}
	// Remember our own injection so the mesh echo is dropped.
	s.seen.Observe(out.ID)
	fields := append(make([]message.Field, 0, 3+len(envelope)),
		message.Field{Namespace: elemNS, Name: elemOp, Value: opProp},
		message.Field{Namespace: elemNS, Name: elemDSvc, Value: dsvc},
		message.Field{Namespace: elemNS, Name: elemDParam, Value: dparam})
	fields = append(fields, envelope...)
	attempted, failed := s.fanOut(out, jid.Nil, dparam, fields...)
	if attempted == 0 {
		return ErrNoPeers
	}
	if failed == attempted {
		return fmt.Errorf("%w (%d peers)", ErrAllSendsFailed, failed)
	}
	return nil
}

func (s *Service) handleProp(msg *message.Message, from endpoint.Address) {
	if !s.seen.Observe(msg.ID) {
		s.stats.duplicates.Add(1)
		return
	}
	dsvc := msg.Text(elemNS, elemDSvc)
	dparam := msg.Text(elemNS, elemDParam)
	if dsvc == "" {
		return
	}
	delivered := s.ep.DeliverLocal(dsvc, dparam, msg, from) == nil
	if delivered {
		s.stats.delivered.Add(1)
	}
	// Forward deeper into the mesh. Edge peers terminate propagation;
	// only rendezvous fan out.
	if s.cfg.Role != RoleRendezvous {
		return
	}
	// A message is shared only once a local handler has it: then the hop
	// stamps a COW Dup, which copies just the path/TTL state. Otherwise
	// nothing else holds what the endpoint decoded for this call, and
	// the hop stamps the message itself.
	fwd := msg
	if delivered {
		fwd = msg.Dup()
	}
	if !fwd.Stamp(s.ep.PeerID()) {
		return
	}
	s.fanOut(fwd, msg.Src, groupOf(msg))
}

// netGroup is the net group's endpoint parameter.
var netGroup = jid.NetGroup.String()

// targetPool holds the scratch a fan-out copies its targets into, so a
// frame pays no allocation for them.
var targetPool = sync.Pool{New: func() any { return new([]target) }}

// targets copies the targets of group the core keeps — the peers leased
// to us for it and the rendezvous we hold a lease for it with, each once
// — into scratch from targetPool, which the caller puts back. A target
// is still to be checked against its expiry: the list moves with the
// tables, not with time.
func (s *Service) targets(group string) *[]target {
	l := targetPool.Get().(*[]target)
	s.mu.Lock()
	from, named := s.c.lists[group]
	if !named {
		from = s.c.lists[""]
	}
	*l = append((*l)[:0], from...)
	s.mu.Unlock()
	return l
}

// fanOut is the forwarding step Propagate and handleProp share: it logs
// the stamped message (durable peers), archives its trace hop, and sends
// it — with the envelope fields a message injected here does not carry
// as elements yet — to every connected peer in the given group except
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

	tl := s.targets(param)
	defer targetPool.Put(tl)
	now := s.now()

	// Marshal once: every target receives the identical frame, so the
	// envelope-and-encode work must not be repeated per peer.
	var failures []endpoint.Address
	for _, t := range *tl {
		if now.After(t.expires) || t.id == except || msg.Visited(t.id) {
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
