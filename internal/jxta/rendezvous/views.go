package rendezvous

// views.go is the read side: the counters every part bumps and the
// snapshots the obs registry and the admin surface are served from.

import (
	"sort"
	"sync/atomic"
	"time"

	"github.com/tps-p2p/tps/internal/jxta/seen"
	"github.com/tps-p2p/tps/internal/obs"
)

// rdvCounters are lock-free: the propagation hot path bumps them
// without taking s.mu.
type rdvCounters struct {
	propagated     atomic.Int64 // messages this peer injected or forwarded
	delivered      atomic.Int64 // propagated messages delivered to local services
	duplicates     atomic.Int64 // propagated messages dropped by the seen-cache
	sendFailures   atomic.Int64 // per-peer propagation sends that errored
	seedFailures   atomic.Int64 // seed connect attempts rejected by the transport
	suspected      atomic.Int64 // peers marked suspect after consecutive failures
	probes         atomic.Int64 // ping probes sent to suspect peers
	evicted        atomic.Int64 // peers evicted after sustained failure
	breakerSkips   atomic.Int64 // sends/redials skipped while a breaker was open
	replayRequests atomic.Int64 // replay ops sent
	replayServed   atomic.Int64 // log entries resent to requesters
	replayGaps     atomic.Int64 // gap signals sent or received
	logFailures    atomic.Int64 // event-log appends that errored
	failovers      atomic.Int64 // active→standby re-elections (ActiveStandby)
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
	s.expireLocked()
	leases := len(s.clients)
	connected := len(s.rdvs)
	suspects, breakers := s.det.counts(s.now())
	s.mu.Unlock()
	return obs.Snapshot{
		Name:    "rendezvous",
		Version: 1,
		Counters: map[string]int64{
			"propagated":      s.stats.propagated.Load(),
			"delivered":       s.stats.delivered.Load(),
			"duplicates":      s.stats.duplicates.Load(),
			"send_failures":   s.stats.sendFailures.Load(),
			"seed_failures":   s.stats.seedFailures.Load(),
			"suspected":       s.stats.suspected.Load(),
			"probes":          s.stats.probes.Load(),
			"evicted":         s.stats.evicted.Load(),
			"breaker_skips":   s.stats.breakerSkips.Load(),
			"replay_requests": s.stats.replayRequests.Load(),
			"replay_served":   s.stats.replayServed.Load(),
			"replay_gaps":     s.stats.replayGaps.Load(),
			"log_failures":    s.stats.logFailures.Load(),
			"failovers":       s.stats.failovers.Load(),
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

// PeersView lists every peer this peer knows about — one entry per lease
// with a rendezvous and per lease of a client, each with its group, and
// one per configured seed — together with the failure detector's
// per-address state. It feeds the peer table of /inspect on the admin
// surface.
func (s *Service) PeersView() []obs.PeerEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	now := s.now()
	out := make([]obs.PeerEntry, 0, len(s.rdvs)+len(s.clients)+len(s.cfg.Seeds))
	leased := func(kind, id, group string, e peerEntry) {
		pe := obs.PeerEntry{
			ID:          id,
			Addr:        string(e.addr),
			Kind:        kind,
			Group:       group,
			ExpiresInMS: remainingMS(e.expires, now),
		}
		s.det.fill(&pe, e.addr, now)
		out = append(out, pe)
	}
	for k, e := range s.rdvs {
		leased(obs.PeerRendezvous, k.id.String(), k.param, *e)
	}
	for k, e := range s.clients {
		leased(obs.PeerClient, k.id.String(), k.param, *e)
	}
	for i, addr := range s.cfg.Seeds {
		pe := obs.PeerEntry{
			Addr:   string(addr),
			Kind:   obs.PeerSeed,
			Fails:  s.seeds.state[i].fails,
			Active: s.cfg.ActiveStandby && i == s.seeds.active,
		}
		// Leased is the per-seed connection truth AwaitConnected cannot
		// give: it reports whether a lease is currently held with THIS
		// seed, so operators can see that e.g. the only logging
		// rendezvous is down while some other seed keeps the peer
		// nominally "connected".
		for _, e := range s.rdvs {
			if e.addr == addr {
				pe.Leased = true
				break
			}
		}
		s.det.fill(&pe, addr, now)
		out = append(out, pe)
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
