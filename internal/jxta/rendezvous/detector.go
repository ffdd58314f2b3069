package rendezvous

import (
	"time"

	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/obs"
)

// healthState tracks delivery failures per address. Addresses — not
// peer IDs — are the unit of reachability: they are what sends go to and
// what seed reconnects dial.
type healthState struct {
	fails       int       // consecutive send failures
	suspect     bool      // crossed SuspectAfter; being probed
	bannedUntil time.Time // breaker: evicted, no contact until then
}

// detector is the failure detector: consecutive send failures make an
// address suspect (probed with pings), sustained failure evicts it
// behind a breaker for one LeaseTTL. Its thresholds are the service's
// Config (SuspectAfter, EvictAfter). It has no lock of its own — its
// state changes together with the lease tables, so every method
// requires the caller to hold Service.mu.
type detector map[endpoint.Address]*healthState

// banned reports whether addr's eviction breaker is open at now.
func (d detector) banned(addr endpoint.Address, now time.Time) bool {
	h := d[addr]
	return h != nil && now.Before(h.bannedUntil)
}

// fail records one send failure against addr. suspect is set when this
// failure crossed the suspect threshold (reported once per episode);
// evict is set when it crossed the evict threshold: the breaker is now
// open for the cooldown and the caller must drop the leases behind addr.
func (d detector) fail(addr endpoint.Address, now time.Time, cfg *Config) (suspect, evict bool) {
	h := d[addr]
	if h == nil {
		h = &healthState{}
		d[addr] = h
	}
	h.fails++
	if !h.suspect && h.fails >= cfg.SuspectAfter {
		h.suspect, suspect = true, true
	}
	if h.fails >= cfg.EvictAfter {
		*h = healthState{bannedUntil: now.Add(cfg.LeaseTTL)}
		evict = true
	}
	return suspect, evict
}

// ok clears any failure state for addr: proof of life resets the
// suspect counter and closes the breaker.
func (d detector) ok(addr endpoint.Address) { delete(d, addr) }

// suspects lists the suspect addresses that are not behind an open
// breaker, and prunes entries whose breaker expired with no fresh
// failures: the peer is gone and nothing references the address anymore.
func (d detector) suspects(now time.Time) []endpoint.Address {
	var out []endpoint.Address
	for addr, h := range d {
		switch {
		case h.suspect && !d.banned(addr, now):
			out = append(out, addr)
		case !h.suspect && h.fails == 0 && !h.bannedUntil.IsZero() && now.After(h.bannedUntil):
			delete(d, addr)
		}
	}
	return out
}

// counts returns how many addresses are suspect and how many breakers
// are open at now.
func (d detector) counts(now time.Time) (suspects, breakers int) {
	for addr, h := range d {
		if h.suspect {
			suspects++
		}
		if d.banned(addr, now) {
			breakers++
		}
	}
	return suspects, breakers
}

// fill copies the detector's state for addr into pe. Seed entries keep
// their own connect-failure count when the address has no send-side
// health record.
func (d detector) fill(pe *obs.PeerEntry, addr endpoint.Address, now time.Time) {
	h, ok := d[addr]
	if !ok {
		return
	}
	if h.fails > pe.Fails {
		pe.Fails = h.fails
	}
	pe.Suspect = h.suspect
	pe.BreakerOpenMS = remainingMS(h.bannedUntil, now)
}
