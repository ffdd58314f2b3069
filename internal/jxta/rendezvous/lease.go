package rendezvous

// lease.go holds the lease tables: the clients leased to this peer
// (rendezvous role) and the rendezvous this peer holds leases with.

import (
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

// clientKey identifies a lease: one peer may lease separately for
// several groups.
type clientKey struct {
	id jid.ID
	// param is the group the client leased for; "" (wildcard rendezvous
	// mesh peers) receives every group's propagation.
	param string
}

// ConnectedRendezvous returns the IDs of rendezvous peers we hold leases
// with.
func (s *Service) ConnectedRendezvous() []jid.ID {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	out := make([]jid.ID, 0, len(s.rdvs))
	for id := range s.rdvs {
		out = append(out, id)
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

// AwaitConnected blocks until this peer holds a lease with at least one
// rendezvous, or the timeout elapses. It reports success. Peers with no
// seeds are never "connected". It fails fast — without spinning out the
// timeout — once every configured seed has rejected at least
// seedFailFastAfter consecutive connect attempts at the transport layer
// (all seeds unreachable).
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
func (s *Service) AwaitConnected(timeout time.Duration) bool {
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
		s.expireLocked()
		if len(s.rdvs) > 0 {
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
	// The lease is scoped to the group the client addressed: a wildcard
	// rendezvous receives connects for many groups through its ("", svc)
	// fallback handler.
	param := s.incomingParam(msg)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	key, now := clientKey{msg.Src, param}, s.now()
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

// LeaseListener is told that rdv has just granted this peer a lease
// that one of the two sides did not hold: a new connection epoch, in
// which rdv knows nothing of what this peer received before. Renewals
// of a lease both sides hold are not reported. It runs on the
// transport's receive goroutine and must not block.
type LeaseListener func(rdv jid.ID)

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
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	// A lease that lapsed before this grant is a new one, not a renewal:
	// the rendezvous stopped forwarding to us when it ran out. So is one
	// the rendezvous calls new: it came back from a restart under the ID
	// it had, or dropped us, while our side of the lease was still live.
	s.expireLocked()
	held, renewal := s.rdvs[msg.Src]
	renewal = renewal && msg.Text(elemNS, elemNewLease) != "true"
	held.renew(from, s.now().Add(time.Duration(ttlMS)*time.Millisecond))
	s.rdvs[msg.Src] = held
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
		fn(msg.Src)
	}
}

func (s *Service) handleDisconnect(msg *message.Message) {
	param := s.incomingParam(msg)
	s.mu.Lock()
	delete(s.clients, clientKey{msg.Src, param})
	s.mu.Unlock()
}

func (s *Service) expireLocked() {
	now := s.now()
	for k, e := range s.clients {
		if now.After(e.expires) {
			delete(s.clients, k)
		}
	}
	for id, e := range s.rdvs {
		if now.After(e.expires) {
			delete(s.rdvs, id)
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
	for id, e := range s.rdvs {
		if e.addr == addr {
			delete(s.rdvs, id)
		}
	}
}
