package rendezvous

// lease.go is the driver of the control core (core.go): it turns calls
// and frames into inputs, steps the core under s.mu, and carries out
// what it decided once the lock is let go — sends, lease listeners,
// wake-ups for AwaitConnected.

import (
	"maps"
	"math/rand/v2"
	"slices"
	"time"

	"github.com/tps-p2p/tps/internal/jxta/jid"
)

// seedFailFastAfter is the consecutive failed connect rounds per seed
// after which AwaitConnected gives up early: every seed has been tried
// at least twice and the transport rejected each attempt.
const seedFailFastAfter = 2

// apply steps the core on one input at now and carries out its outputs.
// AwaitConnected looks again after every step that may have changed its
// answer.
func (s *Service) apply(now time.Time, in input) {
	if in.kind == inJoin || in.kind == inLeave || in.kind == inTick {
		// The peer's own steps send its set in the order they took it:
		// a seed never hears an older set after a newer one.
		s.order.Lock()
		defer s.order.Unlock()
	}
	var buf [8]output
	s.mu.Lock()
	outs := s.step(now, in, buf[:0])
	// Proof of life alone never lets a waiter return.
	if in.kind != inPong && (in.kind != inSent || in.failed) {
		s.conn.Broadcast()
	}
	var fns []LeaseListener
	if slices.ContainsFunc(outs, func(o output) bool { return o.kind == outEpoch }) {
		fns = slices.Collect(maps.Values(s.leaseFns))
	}
	s.mu.Unlock()
	s.carryOut(now, outs, fns)
}

// step steps the core on one input at now, under s.mu, and publishes
// what the per-frame path reads of the core without the lock: it marks
// the fan-out's targets stale after every step but an arrival's, a
// pong's and a connect round's, which touch the detector or the seeds
// alone, and it stores the detector's size (watched).
func (s *Service) step(now time.Time, in input, out []output) []output {
	out = s.c.step(now, in, out)
	if in.kind != inRound && (in.kind != inSent && in.kind != inPong || in.failed) {
		s.stale.Store(true)
	}
	s.watched.Store(int64(len(s.c.det)))
	return out
}

// carryOut performs outside the lock what a step at now decided: the
// control frames it sends, the inputs their failures feed back, and the
// epochs it started, which the lease listeners fns hear of.
func (s *Service) carryOut(now time.Time, outs []output, fns []LeaseListener) {
	perform(outs, s.send, func(in input) {
		in.draw = rand.Float64()
		s.apply(now, in)
	}, func(rdv jid.ID, group string) {
		for _, fn := range fns {
			fn(rdv, group)
		}
	})
}

// send sends one control frame the core decided on. Every one is
// addressed to the param "": a lease is the peer's, not a group's.
func (s *Service) send(o output) error {
	m := s.newOp(o.op, 4)
	if o.op == opConnect || o.op == opLease {
		m.AddUint64(elemNS, elemSeed, o.seed)
		m.AddBytes(elemNS, elemGroups, appendSet(m.PayloadRoom(), o.groups))
		m.AddUint64(elemNS, elemEpoch, o.epoch)
	}
	if o.op == opLease {
		m.AddUint64(elemNS, elemLease, o.lease)
	}
	err := s.ep.Send(o.to, ServiceName, "", m)
	if err != nil && o.op == opPing {
		s.stats.sendFailures.Add(1)
	}
	return err
}

// Join makes this peer lease group with its seeds: an edge sends them
// its new group set at once, not at the next renewal, and renews it
// with the rest from then on. An edge in maxGroups groups joins no more,
// and a group whose name holds a NUL byte, which ends a name in a set on
// the wire (appendSet), is not joined. A rendezvous, whose one lease for
// "" carries every group, has nothing to join.
func (s *Service) Join(group string) { s.apply(s.now(), input{kind: inJoin, group: group}) }

// Leave ends this peer's lease of group: it sends its seeds the set
// without it, at once — a disconnect when it was the last — which they
// do not answer, and drops the group from the leases it holds. A grant
// that is still in flight covers the group no more when it arrives. On
// a rendezvous it does nothing.
func (s *Service) Leave(group string) { s.apply(s.now(), input{kind: inLeave, group: group}) }

// ConnectedRendezvous returns the IDs of the rendezvous peers we hold a
// live lease with that carries group.
func (s *Service) ConnectedRendezvous(group string) []jid.ID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.leased(group)
}

// leased lists the rendezvous we hold a live lease with that carries
// group.
func (s *Service) leased(group string) []jid.ID {
	now := s.now()
	var out []jid.ID
	for id, e := range s.c.rdvs {
		if covers(e.groups, group) && !now.After(e.expires) {
			out = append(out, id)
		}
	}
	return out
}

// AwaitConnected blocks until this peer holds a lease that carries
// group with at least one rendezvous, or the timeout elapses. It reports
// success. Peers with no seeds are never "connected". It fails fast —
// without spinning out the timeout — once every configured seed has
// failed at least seedFailFastAfter consecutive connect rounds at the
// transport layer (all seeds unreachable).
//
// Contract under mixed seed health: "connected" means AT LEAST ONE
// lease, not one per seed. A peer whose only logging (replay-serving)
// rendezvous is down while another seed answers still reports
// connected, with replay silently unavailable until the logging seed
// recovers. Callers that need a particular seed must check the
// per-seed Leased flag in PeersView (surfaced through Inspect() and
// the /inspect admin endpoint) rather than infer it from this method. In
// ActiveStandby mode only the elected active is ever leased with, so
// exactly one seed entry shows Leased when healthy.
func (s *Service) AwaitConnected(group string, timeout time.Duration) bool {
	deadline := s.now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		s.mu.Lock()
		s.conn.Broadcast()
		s.mu.Unlock()
	})
	defer timer.Stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if len(s.leased(group)) > 0 {
			return true
		}
		if s.c.closed || !s.now().Before(deadline) || s.unreachableLocked() {
			return false
		}
		s.conn.Wait()
	}
}

// unreachableLocked reports whether every configured seed has failed
// enough consecutive connect rounds to be considered unreachable;
// evicted and cooling down counts as unreachable.
func (s *Service) unreachableLocked() bool {
	now := s.now()
	for i, addr := range s.cfg.Seeds {
		if s.c.seeds[i].fails < seedFailFastAfter && !s.c.det.banned(addr, now) {
			return false
		}
	}
	return len(s.cfg.Seeds) > 0
}

// LeaseListener is told that group has become covered by this peer's
// lease with rdv: a new connection for the group, in which rdv knows
// nothing of what this peer received of it before. The grant that covers
// a group reaches the listeners, once for the group, when this peer's
// live lease with rdv did not cover it in that grant's epoch, however
// many grants were lost or duplicated on the way; a renewal never does.
// The group "" is a rendezvous' lease with another, which carries every
// group. It runs on the transport's receive goroutine and must not
// block.
type LeaseListener func(rdv jid.ID, group string)

// AddLeaseListener registers fn for new leases and returns the token
// that RemoveLeaseListener takes.
func (s *Service) AddLeaseListener(fn LeaseListener) int { return addListener(s, &s.leaseFns, fn) }

// RemoveLeaseListener drops the listener registered under token.
func (s *Service) RemoveLeaseListener(token int) { removeListener(s, &s.leaseFns, token) }
