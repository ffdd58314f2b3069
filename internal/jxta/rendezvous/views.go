package rendezvous

// views.go is the read side: the counters every part bumps and the
// snapshots the obs registry and the admin surface are served from.

import (
	"maps"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/jxta/seen"
	"github.com/tps-p2p/tps/internal/obs"
)

// rdvCounters are lock-free: the propagation hot path bumps them
// without taking s.mu. The control core counts its own transitions.
type rdvCounters struct {
	propagated     atomic.Int64 // messages this peer injected or forwarded
	delivered      atomic.Int64 // propagated messages delivered to local services
	duplicates     atomic.Int64 // propagated messages dropped by the seen-cache
	sendFailures   atomic.Int64 // per-peer propagation sends that errored
	replayRequests atomic.Int64 // replay ops sent
	replayServed   atomic.Int64 // log entries resent to requesters
	replayGaps     atomic.Int64 // gap signals sent or received
	logFailures    atomic.Int64 // event-log appends that errored
	syncDigests    atomic.Int64 // anti-entropy digests received
	syncPulls      atomic.Int64 // pull requests served
	syncRecords    atomic.Int64 // records sent while serving pulls
	syncApplied    atomic.Int64 // pulled records applied to local copies
	syncDivergence atomic.Int64 // aligned segment ranges with mismatched CRCs
	syncRejects    atomic.Int64 // sync ops dropped: sender not a replica seed
	syncResets     atomic.Int64 // copies reset past an origin-side retention gap
}

// Snapshot implements obs.Provider.
func (s *Service) Snapshot() obs.Snapshot {
	s.mu.Lock()
	c, now := s.c, s.now()
	lapsed := func(e *peerEntry) bool { return now.After(e.expires) }
	leases := len(slices.DeleteFunc(slices.Collect(maps.Values(c.clients)), lapsed))
	connected := len(slices.DeleteFunc(slices.Collect(maps.Values(c.rdvs)), lapsed))
	suspects, breakers := 0, 0
	for addr, h := range c.det {
		if h.suspect {
			suspects++
		}
		if c.det.banned(addr, now) {
			breakers++
		}
	}
	seedFailures, suspected, probes, evicted, breakerSkips, failovers := c.seedFailures, c.suspected, c.probes, c.evicted, c.breakerSkips, c.failovers
	s.mu.Unlock()
	return obs.Snapshot{
		Name:    "rendezvous",
		Version: 1,
		Counters: map[string]int64{
			"propagated":      s.stats.propagated.Load(),
			"delivered":       s.stats.delivered.Load(),
			"duplicates":      s.stats.duplicates.Load(),
			"send_failures":   s.stats.sendFailures.Load(),
			"seed_failures":   seedFailures,
			"suspected":       suspected,
			"probes":          probes,
			"evicted":         evicted,
			"breaker_skips":   breakerSkips,
			"replay_requests": s.stats.replayRequests.Load(),
			"replay_served":   s.stats.replayServed.Load(),
			"replay_gaps":     s.stats.replayGaps.Load(),
			"log_failures":    s.stats.logFailures.Load(),
			"failovers":       failovers,
			"sync_digests":    s.stats.syncDigests.Load(),
			"sync_pulls":      s.stats.syncPulls.Load(),
			"sync_records":    s.stats.syncRecords.Load(),
			"sync_applied":    s.stats.syncApplied.Load(),
			"sync_divergence": s.stats.syncDivergence.Load(),
			"sync_rejects":    s.stats.syncRejects.Load(),
			"sync_resets":     s.stats.syncResets.Load(),
		},
		Gauges: map[string]float64{
			"leases":        float64(leases),
			"connected":     float64(connected),
			"suspects":      float64(suspects),
			"breakers_open": float64(breakers),
		},
	}
}

// SeenCache exposes the propagation duplicate cache for the "seen"
// subsystem aggregation.
func (s *Service) SeenCache() *seen.Cache { return s.seen }

// PeersView lists every peer this peer knows about — one entry per live
// lease with a rendezvous and per live lease of a client, each with its
// group, and one per configured seed — together with the failure
// detector's per-address state. It feeds the peer table of /inspect on
// the admin surface.
func (s *Service) PeersView() []obs.PeerEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, now := s.c, s.now()
	out := make([]obs.PeerEntry, 0, len(c.rdvs)+len(c.clients)+len(s.cfg.Seeds))
	// fill copies the detector's state for addr into pe. Seed entries
	// keep their own connect-failure count when the address has no
	// send-side health record.
	fill := func(pe obs.PeerEntry, addr endpoint.Address) {
		if h := c.det[addr]; h != nil {
			pe.Fails = max(pe.Fails, h.fails)
			pe.Suspect = h.suspect
			pe.BreakerOpenMS = remainingMS(h.bannedUntil, now)
		}
		out = append(out, pe)
	}
	for kind, table := range map[string]map[leaseKey]*peerEntry{obs.PeerRendezvous: c.rdvs, obs.PeerClient: c.clients} {
		for k, e := range table {
			if !now.After(e.expires) {
				fill(obs.PeerEntry{ID: k.id.String(), Addr: string(e.addr), Kind: kind, Group: k.param, ExpiresInMS: remainingMS(e.expires, now)}, e.addr)
			}
		}
	}
	for i, addr := range s.cfg.Seeds {
		// Leased is the per-seed connection truth AwaitConnected cannot
		// give: it reports whether a lease is currently held with THIS
		// seed, so operators can see that e.g. the only logging
		// rendezvous is down while some other seed keeps the peer
		// nominally "connected".
		leased := slices.ContainsFunc(slices.Collect(maps.Values(c.rdvs)), func(e *peerEntry) bool { return e.addr == addr && !now.After(e.expires) })
		fill(obs.PeerEntry{Addr: string(addr), Kind: obs.PeerSeed, Fails: c.seeds[i].fails,
			Active: s.cfg.ActiveStandby && i == c.active, Leased: leased}, addr)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Addr < out[j].Addr
	})
	return out
}

// remainingMS returns how many milliseconds remain until t, or 0 when t
// is zero or past.
func remainingMS(t, now time.Time) int64 {
	if t.IsZero() || !t.After(now) {
		return 0
	}
	return t.Sub(now).Milliseconds()
}
