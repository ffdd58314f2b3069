package rendezvous

// lease.go holds the lease tables: the clients leased to this peer
// (rendezvous role) and the rendezvous this peer holds leases with, both
// per (peer, group).

import (
	"maps"
	"slices"
	"strings"
	"time"

	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/message"
)

type peerEntry struct {
	addr    endpoint.Address
	expires time.Time
}

// renew gives the entry the address a connect or a grant came from and
// a new expiry. The address is a piece of the received frame (see
// endpoint.Handler) and the table outlives it by the length of the
// lease: the string the entry holds stays when it is the same address,
// a new one is copied.
func (e *peerEntry) renew(from endpoint.Address, expires time.Time) {
	if e.addr != from {
		e.addr = endpoint.Address(strings.Clone(string(from)))
	}
	e.expires = expires
}

// leaseKey identifies a lease: one peer may lease separately for several
// groups, in either table.
type leaseKey struct {
	id jid.ID
	// param is the group leased for; "" (rendezvous leasing with each
	// other) carries every group.
	param string
}

// covers reports whether a lease for leased carries the traffic of
// group: a lease for "" carries every group's, and "" asks about every
// lease.
func covers(leased, group string) bool {
	return leased == "" || group == "" || leased == group
}

// Join makes this peer lease group with its seeds: an edge connects for
// it at once, not at the next renewal, and renews it with the rest from
// then on. A rendezvous, whose one lease for "" carries every group,
// has nothing to join.
func (s *Service) Join(group string) {
	if s.cfg.Role == RoleRendezvous {
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.groups[group] = struct{}{}
	s.mu.Unlock()
	if s.seeds != nil {
		s.seeds.connect([]string{group})
	}
}

// Leave ends this peer's leases for group: it tells every rendezvous it
// holds one with, at once, and drops them. A grant for the group that is
// still in flight is dropped when it arrives. On a rendezvous it does
// nothing.
func (s *Service) Leave(group string) {
	if s.cfg.Role == RoleRendezvous {
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	delete(s.groups, group)
	var leaving []endpoint.Address
	for k, e := range s.rdvs {
		if k.param == group {
			leaving = append(leaving, e.addr)
			delete(s.rdvs, k)
		}
	}
	s.mu.Unlock()
	for _, addr := range leaving {
		_ = s.ep.Send(addr, ServiceName, group, s.newOp(opDisconnect, 0))
	}
}

// leasedGroups lists the groups this peer leases.
func (s *Service) leasedGroups() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Collect(maps.Keys(s.groups))
}

// ConnectedRendezvous returns the IDs of the rendezvous peers we hold a
// lease with that carries group.
func (s *Service) ConnectedRendezvous(group string) []jid.ID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.connectedLocked(group)
}

func (s *Service) connectedLocked(group string) []jid.ID {
	s.expireLocked()
	var out []jid.ID
	for k := range s.rdvs {
		if covers(k.param, group) && !slices.Contains(out, k.id) {
			out = append(out, k.id)
		}
	}
	return out
}

// ConnectedClients returns the IDs of peers leased to us (rendezvous
// role), across all groups, without duplicates.
func (s *Service) ConnectedClients() []jid.ID {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	seen := make(map[jid.ID]struct{}, len(s.clients))
	out := make([]jid.ID, 0, len(s.clients))
	for k := range s.clients {
		if _, dup := seen[k.id]; dup {
			continue
		}
		seen[k.id] = struct{}{}
		out = append(out, k.id)
	}
	return out
}

// AwaitConnected blocks until this peer holds a lease that carries
// group with at least one rendezvous, or the timeout elapses. It reports
// success. Peers with no seeds are never "connected". It fails fast —
// without spinning out the timeout — once every configured seed has
// rejected at least seedFailFastAfter consecutive connect attempts at
// the transport layer (all seeds unreachable).
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
		if len(s.connectedLocked(group)) > 0 {
			return true
		}
		if s.closed || !s.now().Before(deadline) {
			return false
		}
		if s.seeds != nil && s.seeds.unreachableLocked() {
			return false
		}
		s.conn.Wait()
	}
}

func (s *Service) handleConnect(msg *message.Message, from endpoint.Address) {
	if s.cfg.Role != RoleRendezvous {
		return // edge peers do not grant leases
	}
	// The lease is scoped to the group the client addressed.
	param := groupOf(msg)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	key, now := leaseKey{msg.Src, param}, s.now()
	held := s.clients[key]
	renewal := held != nil && !now.After(held.expires)
	if held == nil {
		// The group too is the frame's: the key takes a copy, once — a
		// renewal writes the held entry and leaves the key alone.
		key.param = strings.Clone(param)
		held = &peerEntry{}
		s.clients[key] = held
	}
	held.renew(from, now.Add(s.cfg.LeaseTTL))
	// An inbound connect is proof of life: whatever suspicion (or stale
	// eviction ban) the address carried is obsolete.
	s.det.ok(from)
	s.mu.Unlock()

	grant := s.newOp(opLease, 2)
	grant.AddUint64(elemNS, elemLease, uint64(s.cfg.LeaseTTL/time.Millisecond))
	if !renewal {
		// This side held no lease for the client — it never had one, let
		// it lapse, evicted the client, or restarted — and forwarded it
		// nothing in the meantime, whatever the client believes it holds.
		grant.AddString(elemNS, elemNewLease, "true")
	}
	_ = s.ep.Send(from, ServiceName, param, grant)
}

// LeaseListener is told that rdv has just granted this peer a lease for
// group that one of the two sides did not hold: a new connection epoch,
// in which rdv knows nothing of what this peer received of the group
// before. A grant for "" is a rendezvous' lease with another, which
// carries every group. Renewals of a lease both sides hold are not
// reported. It runs on the transport's receive goroutine and must not
// block.
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

func (s *Service) handleLease(msg *message.Message, from endpoint.Address) {
	ttlMS, ok := msg.Uint64(elemNS, elemLease)
	if !ok || ttlMS == 0 {
		return
	}
	key := leaseKey{msg.Src, groupOf(msg)}
	s.mu.Lock()
	// A grant for a group this peer does not lease — never joined, or
	// left while the grant was in flight — is nobody's.
	if _, leased := s.groups[key.param]; s.closed || !leased {
		s.mu.Unlock()
		return
	}
	// A lease that lapsed before this grant is a new one, not a renewal:
	// the rendezvous stopped forwarding to us when it ran out. So is one
	// the rendezvous calls new: it came back from a restart under the ID
	// it had, or dropped us, while our side of the lease was still live.
	s.expireLocked()
	held := s.rdvs[key]
	renewal := held != nil && msg.Text(elemNS, elemNewLease) != "true"
	if held == nil {
		// The group is the frame's: the key takes a copy, once.
		key.param = strings.Clone(key.param)
		held = &peerEntry{}
		s.rdvs[key] = held
	}
	held.renew(from, s.now().Add(time.Duration(ttlMS)*time.Millisecond))
	// A granted lease is proof of life for the rendezvous's address.
	s.det.ok(from)
	s.conn.Broadcast()
	var fns []LeaseListener
	if !renewal {
		fns = make([]LeaseListener, 0, len(s.leaseFns))
		for _, fn := range s.leaseFns {
			fns = append(fns, fn)
		}
	}
	s.mu.Unlock()
	for _, fn := range fns {
		fn(key.id, key.param)
	}
}

func (s *Service) handleDisconnect(msg *message.Message) {
	s.mu.Lock()
	delete(s.clients, leaseKey{msg.Src, groupOf(msg)})
	s.mu.Unlock()
}

func (s *Service) expireLocked() {
	now := s.now()
	for k, e := range s.clients {
		if now.After(e.expires) {
			delete(s.clients, k)
		}
	}
	for k, e := range s.rdvs {
		if now.After(e.expires) {
			delete(s.rdvs, k)
		}
	}
}

// dropLeasesLocked removes every connection-table entry behind an
// evicted address.
func (s *Service) dropLeasesLocked(addr endpoint.Address) {
	for k, e := range s.clients {
		if e.addr == addr {
			delete(s.clients, k)
		}
	}
	for k, e := range s.rdvs {
		if e.addr == addr {
			delete(s.rdvs, k)
		}
	}
}
