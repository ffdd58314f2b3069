package rendezvous

import (
	"time"

	"github.com/tps-p2p/tps/internal/retry"
)

// seedFailFastAfter is the consecutive connect failures per seed after
// which AwaitConnected gives up early: every seed has been tried at
// least twice and the transport rejected each attempt.
const seedFailFastAfter = 2

// seedState throttles (re)connect attempts to one configured seed.
type seedState struct {
	fails int       // consecutive connect-send failures
	next  time.Time // do not retry before this instant
}

// seedClient keeps this peer leased with its configured seed
// rendezvous: with every seed, or — in ActiveStandby mode — with one
// elected active. It exists only on peers configured with seeds. Its
// state is guarded by Service.mu.
type seedClient struct {
	s      *Service
	state  []seedState // parallel to cfg.Seeds
	active int         // index of the active seed (ActiveStandby mode)
}

// connect sends a connect (which doubles as lease renewal) for each of
// the groups to every configured seed that is neither behind an eviction
// breaker nor inside its failure backoff window. In ActiveStandby mode
// only the elected active seed is leased with; the rest stay cold
// standbys. One election covers every group.
func (c *seedClient) connect(groups []string) {
	if c.s.cfg.ActiveStandby {
		c.connectSeed(c.electActive(), groups)
		return
	}
	for i := range c.state {
		c.connectSeed(i, groups)
	}
}

// electActive is the failover state machine: keep the current active
// seed unless the failure detector has declared it dead — then elect
// the next healthy standby (round-robin from the dead active) and clear
// its backoff so the re-lease is immediate. Clients sharing a seed order
// walk the same sequence of actives, so a replica set's clients
// converge on one primary.
func (c *seedClient) electActive() int {
	s := c.s
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	seeds := s.cfg.Seeds
	// Dead means: the address breaker is open (the send-path suspect→
	// probe→evict sequence ran its course) or EvictAfter consecutive
	// connect attempts were rejected by the transport.
	dead := s.det.banned(seeds[c.active], now) || c.state[c.active].fails >= s.cfg.EvictAfter
	if s.closed || !dead {
		return c.active
	}
	for off := 1; off < len(seeds); off++ {
		// Standbys that are themselves behind an open breaker are skipped.
		if j := (c.active + off) % len(seeds); !s.det.banned(seeds[j], now) {
			c.active = j
			c.state[j] = seedState{}
			s.stats.failovers.Add(1)
			break
		}
	}
	return c.active
}

// connectSeed sends seed i one connect/renewal per group unless its
// breaker is open or its failure backoff window has not yet elapsed.
// A transport-level failure is counted once and pushes the seed's next
// attempt out on the retry curve, instead of hammering a dead seed on
// every tick.
func (c *seedClient) connectSeed(i int, groups []string) {
	s := c.s
	seed := s.cfg.Seeds[i]
	now := s.now()
	s.mu.Lock()
	skip := s.closed || s.blockedLocked(seed, now) || now.Before(c.state[i].next)
	s.mu.Unlock()
	if skip {
		return
	}
	var err error
	for _, g := range groups {
		if err = s.ep.Send(seed, ServiceName, g, s.newOp(opConnect, 0)); err != nil {
			break
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.stats.seedFailures.Add(1)
		c.state[i].fails++
		// The shared retry curve, capped at the lease: a seed is never
		// left alone for longer than its lease would have lasted.
		c.state[i].next = now.Add(retry.Policy{Max: s.cfg.LeaseTTL}.Backoff(c.state[i].fails))
		// Wake AwaitConnected so its all-seeds-unreachable check
		// runs as soon as the evidence is in.
		s.conn.Broadcast()
	} else {
		c.state[i] = seedState{}
	}
}

// unreachableLocked reports whether every configured seed has
// accumulated enough consecutive transport-level connect failures to be
// considered unreachable; evicted and cooling down counts as unreachable.
func (c *seedClient) unreachableLocked() bool {
	now := c.s.now()
	for i, addr := range c.s.cfg.Seeds {
		if c.state[i].fails < seedFailFastAfter && !c.s.det.banned(addr, now) {
			return false
		}
	}
	return true
}
