package rendezvous

// propagate.go is the per-message path: injecting a message into the
// mesh, receiving and forwarding one, and the send-side failure
// accounting that feeds the detector.

import (
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

// target is one peer a frame is about to be sent to.
type target struct {
	id   jid.ID
	addr endpoint.Address
}

// targetList is the scratch one fan-out selects its targets into. The
// set of targets moves with time alone (leases lapse, breakers close),
// so it is worked out per frame as before; pooled, a frame no longer
// pays a slice and a map for it.
type targetList struct {
	targets []target
	ids     map[jid.ID]struct{} // peers already in targets
}

var targetPool = sync.Pool{New: func() any { return &targetList{ids: make(map[jid.ID]struct{})} }}

func (l *targetList) release() {
	l.targets = l.targets[:0]
	clear(l.ids)
	targetPool.Put(l)
}

// targets selects who receives a frame of the given group: the peers
// leased to us for it and, when mesh is set, the rendezvous we hold a
// lease for it with — each peer once, skipping addresses whose eviction
// breaker is still open. The caller releases the list when the frame is
// sent.
func (s *Service) targets(param string, mesh bool) *targetList {
	l := targetPool.Get().(*targetList)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	now := s.now()
	// One peer may lease for several groups, or lease while also being a
	// rendezvous we connect to. A client leased for group X must not
	// receive group Y traffic.
	add := func(k leaseKey, e *peerEntry) {
		if !covers(k.param, param) {
			return
		}
		if _, dup := l.ids[k.id]; dup || s.blockedLocked(e.addr, now) {
			return
		}
		l.ids[k.id] = struct{}{}
		l.targets = append(l.targets, target{k.id, e.addr})
	}
	for k, e := range s.clients {
		add(k, e)
	}
	if mesh {
		for k, e := range s.rdvs {
			add(k, e)
		}
	}
	return l
}

// blockedLocked reports whether addr is behind an open breaker, counting
// the contact that is skipped because of it.
func (s *Service) blockedLocked(addr endpoint.Address, now time.Time) bool {
	if !s.det.banned(addr, now) {
		return false
	}
	s.stats.breakerSkips.Add(1)
	return true
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
	// The net group carries queries and advertisements, which are neither
	// events nor worth replaying: it is never logged.
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

	tl := s.targets(param, true)
	defer tl.release()

	// Marshal once: every target receives the identical frame, so the
	// envelope-and-encode work must not be repeated per peer.
	var probes []endpoint.Address
	for _, t := range tl.targets {
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
			if s.noteFailure(t.addr) {
				probes = append(probes, t.addr)
			}
			continue
		}
		s.noteSuccess(t.addr)
	}
	if frame != nil {
		endpoint.RecycleFrame(frame)
	}
	// Probe outside the send loop: a probe is itself a send and must not
	// distort this fan-out's accounting.
	for _, addr := range probes {
		s.probe(addr)
	}
	return attempted, failed
}

// noteFailure records a send failure against addr. It reports whether
// the address just crossed the suspect threshold (the caller should
// probe it). Crossing the evict threshold removes every client and
// rendezvous entry behind the address and opens its breaker for the
// cooldown, so dead peers are not redialed on every fan-out.
func (s *Service) noteFailure(addr endpoint.Address) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	suspect, evict := s.det.fail(addr, s.now(), &s.cfg)
	if suspect {
		s.stats.suspected.Add(1)
	}
	if evict {
		s.dropLeasesLocked(addr)
		s.stats.evicted.Add(1)
		return false
	}
	return suspect
}

// noteSuccess is proof of life for addr.
func (s *Service) noteSuccess(addr endpoint.Address) {
	s.mu.Lock()
	s.det.ok(addr)
	s.mu.Unlock()
}

// probe sends a lightweight ping to a suspect address. A live peer
// answers with a pong, which clears its failure state; a dead one keeps
// accumulating failures until eviction.
func (s *Service) probe(addr endpoint.Address) {
	s.stats.probes.Add(1)
	if s.sendCounted(addr, s.newOp(opPing, 0)) != nil {
		// noteFailure only reports a suspect transition once, so a
		// failed probe advances toward eviction without re-probing.
		_ = s.noteFailure(addr)
	}
}

// probeSuspects pings every suspect address that is not behind an open
// breaker. Called from the maintenance loop.
func (s *Service) probeSuspects() {
	s.mu.Lock()
	addrs := s.det.suspects(s.now())
	s.mu.Unlock()
	for _, addr := range addrs {
		s.probe(addr)
	}
}
