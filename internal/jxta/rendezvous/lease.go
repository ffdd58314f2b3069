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
	var buf [8]output
	s.mu.Lock()
	outs := s.c.step(now, in, buf[:0])
	// Proof of life alone never lets a waiter return.
	if in.kind != inPong && (in.kind != inSent || in.failed) {
		s.conn.Broadcast()
	}
	var fns []LeaseListener
	if slices.ContainsFunc(outs, func(o output) bool { return o.kind == outEpoch }) {
		fns = slices.Collect(maps.Values(s.leaseFns))
	}
	s.mu.Unlock()
	perform(outs, s.send, func(in input) {
		in.draw = rand.Float64()
		s.apply(now, in)
	}, func(rdv jid.ID, group string) {
		for _, fn := range fns {
			fn(rdv, group)
		}
	})
}

// send sends one control frame the core decided on.
func (s *Service) send(o output) error {
	m := s.newOp(o.op, 3)
	if o.op == opConnect || o.op == opLease {
		m.AddUint64(elemNS, elemSeed, o.seed)
	}
	if o.op == opLease {
		m.AddUint64(elemNS, elemLease, o.lease)
		m.AddUint64(elemNS, elemEpoch, o.epoch)
	}
	err := s.ep.Send(o.to, ServiceName, o.group, m)
	if err != nil && o.op == opPing {
		s.stats.sendFailures.Add(1)
	}
	return err
}

// Join makes this peer lease group with its seeds: an edge connects for
// it at once, not at the next renewal, and renews it with the rest from
// then on. A rendezvous, whose one lease for "" carries every group,
// has nothing to join.
func (s *Service) Join(group string) { s.apply(s.now(), input{kind: inJoin, group: group}) }

// Leave ends this peer's leases for group: it tells every rendezvous it
// holds one with, at once, and drops them. A grant for the group that is
// still in flight is dropped when it arrives. On a rendezvous it does
// nothing.
func (s *Service) Leave(group string) { s.apply(s.now(), input{kind: inLeave, group: group}) }

// ConnectedRendezvous returns the IDs of the rendezvous peers we hold a
// live lease with that carries group.
func (s *Service) ConnectedRendezvous(group string) []jid.ID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peers(s.c.rdvs, group)
}

// ConnectedClients returns the IDs of peers holding a live lease with us
// (rendezvous role), across all groups, without duplicates.
func (s *Service) ConnectedClients() []jid.ID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peers(s.c.clients, "")
}

// peers lists, once each, the peers of table with a live lease that
// carries group.
func (s *Service) peers(table map[leaseKey]*peerEntry, group string) []jid.ID {
	now := s.now()
	seen := make(map[jid.ID]struct{}, len(table))
	var out []jid.ID
	for k, e := range table {
		if _, dup := seen[k.id]; !dup && covers(k.param, group) && !now.After(e.expires) {
			seen[k.id] = struct{}{}
			out = append(out, k.id)
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
		if len(s.peers(s.c.rdvs, group)) > 0 {
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

// LeaseListener is told that rdv has started a new lease epoch with this
// peer for group: a new connection, in which rdv knows nothing of what
// this peer received of the group before. The grant that carries an
// epoch reaches the listeners when this peer holds no live lease of that
// epoch, however many grants of it were lost or duplicated on the way;
// a renewal never does. A grant for "" is a rendezvous' lease with
// another, which carries every group. It runs on the transport's
// receive goroutine and must not block.
type LeaseListener func(rdv jid.ID, group string)

// AddLeaseListener registers fn for new leases and returns the token
// that RemoveLeaseListener takes.
func (s *Service) AddLeaseListener(fn LeaseListener) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.leaseFns == nil {
		s.leaseFns = make(map[int]LeaseListener, 1)
	}
	token := s.nextToken
	s.nextToken++
	s.leaseFns[token] = fn
	return token
}

// RemoveLeaseListener drops the listener registered under token.
func (s *Service) RemoveLeaseListener(token int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.leaseFns, token)
}
