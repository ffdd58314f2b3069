package rendezvous

// core.go is the control plane's decisions: the lease tables, seed
// election and the failure detector, as one state machine. step takes
// the time and one input and returns what to do about it. The core
// holds no lock, reads no clock, starts nothing and sends nothing: the
// Service is its driver (lease.go), which decodes a frame into an input,
// steps under s.mu and carries out the outputs once it has let go.

import (
	"slices"
	"strings"
	"time"

	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/retry"
)

type inKind uint8

// Inputs. Those received name the sender's address (from) and ID (src)
// and the group the frame was addressed to.
const (
	inJoin       inKind = iota + 1 // group
	inLeave                        // group
	inClose                        // disconnect every lease, then nothing more
	inTick                         // renew, probe suspects, expire
	inConnect                      // src asks for a lease for group through its seed
	inGrant                        // src granted one: lease ms, epoch, the seed it answers
	inDisconnect                   // src left group
	inPong                         // from answered a probe
	inSent                         // a send to from arrived, or failed
	inRound                        // seed's connect round ended, failed or not
)

type input struct {
	kind   inKind
	from   endpoint.Address
	src    jid.ID
	group  string
	lease  uint64 // granted milliseconds
	epoch  uint64
	seed   uint64 // a seed's place in Seeds, counted from 1; see elemSeed
	failed bool
	draw   float64 // the backoff's jitter draw, in [0, 1)
}

type outKind uint8

const (
	outSend  outKind = iota + 1 // a control frame: op, its address and group
	outEpoch                    // rdv started a new lease epoch for group
)

type output struct {
	kind  outKind
	op    string
	to    endpoint.Address
	group string
	lease uint64 // a grant's milliseconds
	epoch uint64 // a grant's epoch
	seed  uint64 // the seed a connect goes to or a grant answers, counted from 1
	rdv   jid.ID // outEpoch
}

type peerEntry struct {
	addr    endpoint.Address
	group   string // the key's
	expires time.Time
	epoch   uint64
	seed    uint64 // rdvs: the seed its latest grant answered
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

// target is one peer a frame of a group goes to. expires is the latest
// of its live leases that carry the group, clientExpires that of those
// it holds with us as a client: the fan-out skips the peer once now is
// past the one it reads.
type target struct {
	id                     jid.ID
	addr                   endpoint.Address
	expires, clientExpires time.Time
}

// seedState throttles (re)connect attempts to one configured seed.
type seedState struct {
	fails int       // consecutive failed connect rounds
	next  time.Time // do not retry before this instant
}

type core struct {
	cfg     *Config                 // normalised; Clock is the driver's
	groups  []string                // what we lease: an edge's joined groups, or "" alone on a rendezvous
	clients map[leaseKey]*peerEntry // connected to us (rendezvous role)
	rdvs    map[leaseKey]*peerEntry // we are connected to them (granted leases)
	det     detector
	seeds   []seedState // parallel to cfg.Seeds
	active  int         // the elected seed (ActiveStandby)
	closed  bool
	epoch   uint64 // the next lease epoch to grant: a base drawn per boot, counted up

	// The fan-out's targets per group some lease names; the list of ""
	// is every other group's. named counts the leases that name a group.
	// A step that changes a lease moves its peer's targets alone.
	lists map[string][]target
	named map[string]int

	// Counters, read under the driver's lock.
	seedFailures, suspected, probes, evicted, breakerSkips, failovers int64
}

func newCore(cfg *Config, epoch uint64) *core {
	c := &core{
		cfg:     cfg,
		clients: make(map[leaseKey]*peerEntry),
		rdvs:    make(map[leaseKey]*peerEntry),
		det:     make(detector),
		seeds:   make([]seedState, len(cfg.Seeds)),
		epoch:   epoch,
		lists:   make(map[string][]target),
		named:   make(map[string]int),
	}
	if cfg.Role == RoleRendezvous {
		c.groups = []string{""}
	}
	return c
}

// step applies one input at now, appending what the driver must do to
// out.
func (c *core) step(now time.Time, in input, out []output) []output {
	if c.closed {
		return out
	}
	edge := c.cfg.Role == RoleEdge
	switch in.kind {
	case inJoin:
		if edge {
			if !slices.Contains(c.groups, in.group) {
				c.groups = append(c.groups, in.group)
			}
			out = c.connect(now, []string{in.group}, out)
		}
	case inLeave:
		if edge {
			c.groups = slices.DeleteFunc(c.groups, func(g string) bool { return g == in.group })
			for k, e := range c.rdvs {
				if k.param == in.group {
					out = append(out, output{kind: outSend, op: opDisconnect, to: e.addr, group: k.param})
					c.unlease(c.rdvs, k)
				}
			}
		}
	case inClose:
		c.closed = true
		for k, e := range c.rdvs {
			out = append(out, output{kind: outSend, op: opDisconnect, to: e.addr, group: k.param})
		}
	case inTick:
		c.remove(func(e *peerEntry) bool { return now.After(e.expires) })
		out = c.connect(now, c.groups, out)
		for _, addr := range c.det.suspects(now) {
			c.probes++
			out = append(out, output{kind: outSend, op: opPing, to: addr})
		}
	case inConnect:
		if edge {
			break
		}
		e := c.lease(c.clients, in)
		if now.After(e.expires) {
			// This side holds no lease for the client — it never had one,
			// let it lapse, evicted the client, or restarted — and forwarded
			// it nothing in the meantime, whatever the client believes.
			e.epoch = c.epoch
			c.epoch++
		}
		e.renew(in.from, now.Add(c.cfg.LeaseTTL))
		// An inbound connect is proof of life: whatever suspicion (or
		// stale eviction ban) the address carried is obsolete.
		delete(c.det, in.from)
		c.retarget(in.src, e.group)
		// The grant goes to the frame's own from, not the entry's copy:
		// tcpnet keys a new host queue by it, and which string that is
		// moves the heap and the GC's pace (ROADMAP item 13).
		out = append(out, output{kind: outSend, op: opLease, to: in.from, group: e.group,
			lease: uint64(c.cfg.LeaseTTL / time.Millisecond), epoch: e.epoch, seed: in.seed})
	case inGrant:
		// A grant for a group this peer does not lease — never joined, or
		// left while the grant was in flight — is nobody's; so is one that
		// answers a connect to a seed that is not the elected one. The seed
		// is the one the connect named, not the address the grant came
		// from: a seed may be configured under a name of the rendezvous'
		// other than the one it reports.
		if !slices.Contains(c.groups, in.group) || c.cfg.ActiveStandby && len(c.cfg.Seeds) > 0 && in.seed != uint64(c.active)+1 {
			break
		}
		e := c.lease(c.rdvs, in)
		// An epoch this side does not hold is a new connection: the
		// rendezvous started it, or our side of it lapsed.
		fresh := now.After(e.expires) || e.epoch != in.epoch
		e.epoch, e.seed = in.epoch, in.seed
		e.renew(in.from, now.Add(time.Duration(in.lease)*time.Millisecond))
		// A granted lease is proof of life for the rendezvous's address.
		delete(c.det, in.from)
		c.retarget(in.src, e.group)
		if fresh {
			out = append(out, output{kind: outEpoch, rdv: in.src, group: e.group})
		}
	case inDisconnect:
		if k := (leaseKey{in.src, in.group}); c.clients[k] != nil {
			c.unlease(c.clients, k)
		}
	case inPong:
		delete(c.det, in.from)
	case inSent:
		if !in.failed {
			delete(c.det, in.from)
			break
		}
		// Consecutive failures make the address suspect, once an episode,
		// and then evict it.
		h := c.det[in.from]
		if h == nil {
			h = &healthState{}
			c.det[in.from] = h
		}
		h.fails++
		suspect := !h.suspect && h.fails >= c.cfg.SuspectAfter
		if suspect {
			h.suspect = true
			c.suspected++
		}
		if h.fails >= c.cfg.EvictAfter {
			// The breaker opens for the cooldown and every lease behind the
			// address goes, so a dead peer is not redialed on every fan-out.
			*h = healthState{bannedUntil: now.Add(c.cfg.LeaseTTL)}
			c.evicted++
			c.remove(func(e *peerEntry) bool { return e.addr == in.from })
		} else if suspect {
			c.probes++
			out = append(out, output{kind: outSend, op: opPing, to: in.from})
		}
	case inRound:
		st := &c.seeds[in.seed-1]
		if !in.failed {
			*st = seedState{}
			break
		}
		c.seedFailures++
		st.fails++
		// The shared retry curve, capped at the lease: a seed is never
		// left alone for longer than its lease would have lasted.
		st.next = now.Add(retry.Policy{Max: c.cfg.LeaseTTL}.BackoffAt(st.fails, in.draw))
	}
	return out
}

// lease returns the entry of table for the input's (src, group),
// making an empty one when there is none. The group is a piece of the
// frame: a new entry takes a copy, once, for its key, itself and its
// group's list — a renewal writes the entry and leaves the keys alone.
// A group's new list starts as the list of "", which is what carried
// it until now.
func (c *core) lease(table map[leaseKey]*peerEntry, in input) *peerEntry {
	k := leaseKey{in.src, in.group}
	e := table[k]
	if e == nil {
		k.param = strings.Clone(k.param)
		e = &peerEntry{group: k.param}
		table[k] = e
		if c.named[k.param]++; c.named[k.param] == 1 {
			c.lists[k.param] = slices.Clone(c.lists[""])
		}
	}
	return e
}

// unlease deletes k's entry from table and moves its peer's targets.
func (c *core) unlease(table map[leaseKey]*peerEntry, k leaseKey) {
	delete(table, k)
	if c.named[k.param]--; c.named[k.param] == 0 {
		delete(c.named, k.param)
		delete(c.lists, k.param)
	}
	c.retarget(k.id, k.param)
}

// connect renews groups with every seed that is neither behind an
// eviction breaker nor inside its failure backoff window — in
// ActiveStandby mode with the elected one alone, one election covering
// every group. The connects of one seed are one round: the driver ends
// it at its first failure and reports its result (inRound).
func (c *core) connect(now time.Time, groups []string, out []output) []output {
	if c.cfg.ActiveStandby && len(c.cfg.Seeds) > 0 {
		c.elect(now)
	}
	for i, seed := range c.cfg.Seeds {
		if c.cfg.ActiveStandby && i != c.active || c.blocked(seed, now) || now.Before(c.seeds[i].next) {
			continue
		}
		for _, g := range groups {
			out = append(out, output{kind: outSend, op: opConnect, to: seed, group: g, seed: uint64(i) + 1})
		}
	}
	return out
}

// elect is the failover state machine: keep the active seed unless the
// failure detector has declared it dead — its breaker is open, or
// EvictAfter consecutive connect rounds failed — then elect the next
// healthy standby, round-robin, clear its backoff so the re-lease is
// immediate, and drop the leases granted through the dead one. Clients
// sharing a seed order walk the same sequence of actives, so a replica
// set's clients converge on one primary.
func (c *core) elect(now time.Time) {
	seeds := c.cfg.Seeds
	if !c.det.banned(seeds[c.active], now) && c.seeds[c.active].fails < c.cfg.EvictAfter {
		return
	}
	for off := 1; off < len(seeds); off++ {
		// Standbys that are themselves behind an open breaker are skipped.
		if j := (c.active + off) % len(seeds); !c.det.banned(seeds[j], now) {
			c.remove(func(e *peerEntry) bool { return e.seed == uint64(c.active)+1 })
			c.active = j
			c.seeds[j] = seedState{}
			c.failovers++
			return
		}
	}
}

// blocked reports whether addr is behind an open breaker, counting the
// contact that is skipped because of it.
func (c *core) blocked(addr endpoint.Address, now time.Time) bool {
	if !c.det.banned(addr, now) {
		return false
	}
	c.breakerSkips++
	return true
}

// remove unleases every entry gone reports: a tick's expiry, an
// eviction, an election.
func (c *core) remove(gone func(*peerEntry) bool) {
	for _, table := range []map[leaseKey]*peerEntry{c.clients, c.rdvs} {
		for k, e := range table {
			if gone(e) {
				c.unlease(table, k)
			}
		}
	}
}

// retarget recomputes id's target in each list a lease of id for group
// feeds — its group's, or every list for "" — from the leases of id
// that carry the list's group: at most two in each table.
func (c *core) retarget(id jid.ID, group string) {
	for g, l := range c.lists {
		if group != "" && g != group {
			continue
		}
		t := target{id: id}
		for i, table := range []map[leaseKey]*peerEntry{c.clients, c.rdvs} {
			for _, e := range []*peerEntry{table[leaseKey{id, g}], table[leaseKey{id, ""}]} {
				if e != nil && e.expires.After(t.expires) {
					t.expires, t.addr = e.expires, e.addr
				}
				if e != nil && i == 0 && e.expires.After(t.clientExpires) {
					t.clientExpires = e.expires
				}
			}
		}
		switch i := slices.IndexFunc(l, func(t target) bool { return t.id == id }); {
		case i < 0 && !t.expires.IsZero():
			c.lists[g] = append(l, t)
		case i >= 0 && t.expires.IsZero():
			c.lists[g] = slices.Delete(l, i, i+1)
		case i >= 0:
			l[i] = t
		}
	}
}

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
// Config (SuspectAfter, EvictAfter).
type detector map[endpoint.Address]*healthState

// banned reports whether addr's eviction breaker is open at now.
func (d detector) banned(addr endpoint.Address, now time.Time) bool {
	h := d[addr]
	return h != nil && now.Before(h.bannedUntil)
}

// suspects lists the suspect addresses that are not behind an open
// breaker, sorted, and prunes entries whose breaker expired with no
// fresh failures: the peer is gone and nothing references the address
// anymore.
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
	slices.Sort(out)
	return out
}

// perform carries out a step's outputs: send sends a control frame,
// epoch tells the lease listeners of a new epoch, and feed steps the
// core again on the results it decides on. Those are a seed's connect
// round, which ends at its first failed send, so a dead seed counts once
// a round, and a failed probe.
func perform(outs []output, send func(output) error, feed func(input), epoch func(rdv jid.ID, group string)) {
	for i := 0; i < len(outs); i++ {
		o := outs[i]
		switch {
		case o.kind == outEpoch:
			epoch(o.rdv, o.group)
		case o.op == opConnect:
			failed := false
			for ; i < len(outs) && outs[i].op == opConnect && outs[i].seed == o.seed; i++ {
				failed = failed || send(outs[i]) != nil
			}
			i--
			feed(input{kind: inRound, seed: o.seed, failed: failed})
		default:
			if send(o) != nil && o.op == opPing {
				feed(input{kind: inSent, from: o.to, failed: true})
			}
		}
	}
}
