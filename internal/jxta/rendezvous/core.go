package rendezvous

// core.go is the control plane's decisions: the lease tables, seed
// election and the failure detector, as one state machine. step takes
// the time and one input and returns what to do about it. The core
// holds no lock, reads no clock, starts nothing and sends nothing: the
// Service is its driver (lease.go), which decodes a frame into an input,
// steps under s.mu and carries out the outputs once it has let go.

import (
	"maps"
	"slices"
	"strings"
	"time"

	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/retry"
)

type inKind uint8

// Inputs. Those received name the sender's address (from) and ID (src).
const (
	inJoin       inKind = iota + 1 // group
	inLeave                        // group
	inClose                        // disconnect from every seed, then nothing more
	inTick                         // renew, probe suspects, expire
	inConnect                      // src asks for a lease for groups through its seed, naming the epoch it holds
	inGrant                        // src granted one: groups, lease ms, epoch, the seed it answers
	inDisconnect                   // src ended its lease
	inPong                         // from answered a probe
	inSent                         // a send to from arrived, or failed
	inRound                        // seed's connect ended, failed or not
)

type input struct {
	kind   inKind
	from   endpoint.Address
	src    jid.ID
	group  string   // joined or left
	groups []string // a connect's or a grant's set, sorted
	lease  uint64   // granted milliseconds
	epoch  uint64
	seed   uint64 // a seed's place in Seeds, counted from 1; see elemSeed
	failed bool
	draw   float64 // the backoff's jitter draw, in [0, 1)
}

type outKind uint8

const (
	outSend  outKind = iota + 1 // a control frame: op, its address and group set
	outEpoch                    // rdv started a new lease epoch for group
)

type output struct {
	kind   outKind
	op     string
	to     endpoint.Address
	groups []string // a connect's or a grant's set; outEpoch's group alone
	lease  uint64   // a grant's milliseconds
	epoch  uint64   // a grant's epoch, or the one a connect's peer holds with the seed
	seed   uint64   // the seed a connect goes to or a grant answers, counted from 1
	rdv    jid.ID   // outEpoch
}

// peerEntry is one peer's lease. Its groups are a sorted set, which a
// step replaces and never changes in place: an output may still hold it.
type peerEntry struct {
	addr    endpoint.Address
	groups  []string
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

// covers reports whether a lease for the set leased carries the traffic
// of group: a set holding "" carries every group's. A set is sorted, so
// a look costs a search, not a scan, and "" comes first.
func covers(leased []string, group string) bool {
	_, found := slices.BinarySearch(leased, group)
	return found || len(leased) > 0 && leased[0] == ""
}

// member is one peer in the fan-out list of a group: its leases that
// carry the group, with us as a client and with it as a rendezvous. The
// list holds the entries themselves, so a renewal, which moves an
// entry's expiry alone, leaves every list as it is.
type member struct {
	id          jid.ID
	client, rdv *peerEntry
}

// seedState throttles (re)connect attempts to one configured seed.
type seedState struct {
	fails int       // consecutive failed connects
	next  time.Time // do not retry before this instant
}

type core struct {
	cfg     *Config               // normalised; Clock is the driver's
	groups  []string              // what we lease, sorted: an edge's joined groups, or "" alone on a rendezvous
	clients map[jid.ID]*peerEntry // connected to us (rendezvous role)
	rdvs    map[jid.ID]*peerEntry // we are connected to them (granted leases)
	det     detector
	seeds   []seedState // parallel to cfg.Seeds
	active  int         // the elected seed (ActiveStandby)
	closed  bool
	epoch   uint64 // the next lease epoch to grant: a base drawn per boot, counted up

	// The fan-out's targets per group some lease names; the list of ""
	// is every other group's. named counts the leases that name a group.
	// A step that changes a lease moves its peer's targets alone.
	lists map[string][]member
	named map[string]int
	visit []string // regroup's scratch: the groups whose lists it moves

	// Counters, read under the driver's lock.
	seedFailures, suspected, probes, evicted, breakerSkips, failovers int64
}

func newCore(cfg *Config, epoch uint64) *core {
	c := &core{
		cfg:     cfg,
		clients: make(map[jid.ID]*peerEntry),
		rdvs:    make(map[jid.ID]*peerEntry),
		det:     make(detector),
		seeds:   make([]seedState, len(cfg.Seeds)),
		epoch:   epoch,
		lists:   make(map[string][]member),
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
	switch in.kind {
	case inJoin, inLeave:
		i, found := slices.BinarySearch(c.groups, in.group)
		switch {
		case c.cfg.Role != RoleEdge:
			return out
		case in.kind == inJoin && !found && len(c.groups) < maxGroups && !strings.Contains(in.group, "\x00"):
			c.groups = slices.Insert(slices.Clip(c.groups), i, in.group)
		case in.kind == inLeave && found:
			c.groups = slices.Concat(c.groups[:i], c.groups[i+1:])
			for id, e := range c.rdvs {
				c.regroup(c.rdvs, id, e, slices.DeleteFunc(slices.Clone(e.groups), func(g string) bool { return g == in.group }))
			}
		}
		// The seeds hear the new set at once: a lost one is sent again
		// by the next renewal.
		out = c.connect(now, out)
	case inClose:
		c.closed, c.groups = true, nil
		out = c.connect(now, out)
	case inTick:
		c.remove(func(e *peerEntry) bool { return now.After(e.expires) })
		if len(c.groups) > 0 {
			out = c.connect(now, out)
		}
		for _, addr := range c.det.suspects(now) {
			c.probes++
			out = append(out, output{kind: outSend, op: opPing, to: addr})
		}
	case inConnect:
		if c.cfg.Role == RoleEdge || len(in.groups) == 0 {
			break
		}
		e := c.clients[in.src]
		if e == nil {
			e = &peerEntry{}
		}
		// A connect that only narrows the live lease its peer says it
		// holds is a Leave: the peer needs no grant for it, and may be gone
		// before one came. A peer that holds no lease with us gets one.
		narrows := !now.After(e.expires) && in.epoch == e.epoch && len(in.groups) < len(e.groups) &&
			!slices.ContainsFunc(in.groups, func(g string) bool { return !covers(e.groups, g) })
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
		// A connect replaces the client's set.
		c.regroup(c.clients, in.src, e, in.groups)
		if narrows {
			break
		}
		// The grant goes to the frame's own from, not the entry's copy:
		// tcpnet keys a new host queue by it, and which string that is
		// moves the heap and the GC's pace (ROADMAP item 13).
		out = append(out, output{kind: outSend, op: opLease, to: in.from, groups: in.groups,
			lease: uint64(c.cfg.LeaseTTL / time.Millisecond), epoch: e.epoch, seed: in.seed})
	case inGrant:
		// An epoch this side does not hold is a new connection: the
		// rendezvous started it, or our side of it lapsed. Within one, a
		// grant adds to what the lease covers, so a late grant for a
		// smaller set takes nothing away. Either way it covers only the
		// groups this peer is in, and one that covers none — for groups
		// left while it was in flight — is nobody's.
		e, was := c.rdvs[in.src], []string(nil)
		if e == nil {
			e = &peerEntry{}
		} else if !now.After(e.expires) && e.epoch == in.epoch {
			was = e.groups
		}
		// A set never changes in place, so a lease that covers every
		// joined group shares the joined set.
		missing := func(g string) bool { return !covers(was, g) && !covers(in.groups, g) }
		covered := c.groups
		if slices.ContainsFunc(covered, missing) {
			covered = slices.DeleteFunc(slices.Clone(covered), missing)
		}
		// So is a grant that answers a connect to a seed that is not the
		// elected one. The seed is the one the connect named, not the
		// address the grant came from: a seed may be configured under a
		// name of the rendezvous' other than the one it reports.
		if len(covered) == 0 || c.cfg.ActiveStandby && len(c.cfg.Seeds) > 0 && in.seed != uint64(c.active)+1 {
			break
		}
		e.epoch, e.seed = in.epoch, in.seed
		e.renew(in.from, now.Add(time.Duration(in.lease)*time.Millisecond))
		// A granted lease is proof of life for the rendezvous's address.
		delete(c.det, in.from)
		c.regroup(c.rdvs, in.src, e, covered)
		for i, g := range covered {
			if !covers(was, g) {
				out = append(out, output{kind: outEpoch, rdv: in.src, groups: covered[i : i+1]})
			}
		}
	case inDisconnect:
		if e := c.clients[in.src]; e != nil {
			c.regroup(c.clients, in.src, e, nil)
		}
	case inPong, inSent:
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

// regroup makes e, with the set groups, id's entry of table — none
// deletes it — and, when the set changed, moves id in the list of each
// group it held or holds. A group's new list starts as the list of "",
// which is what carried it until now.
func (c *core) regroup(table map[jid.ID]*peerEntry, id jid.ID, e *peerEntry, groups []string) {
	old := e.groups
	e.groups, table[id] = groups, e
	if len(groups) == 0 {
		delete(table, id)
	}
	if slices.Equal(old, groups) {
		return
	}
	for _, g := range groups {
		if c.named[g]++; c.named[g] == 1 {
			c.lists[g] = slices.Clone(c.lists[""])
		}
	}
	// A lease for "" is in every list.
	c.visit = append(append(c.visit[:0], old...), groups...)
	if slices.Contains(old, "") || slices.Contains(groups, "") {
		c.visit = slices.AppendSeq(c.visit[:0], maps.Keys(c.lists))
	}
	for _, g := range c.visit {
		l := c.lists[g]
		m := member{id: id}
		if e := c.clients[id]; e != nil && covers(e.groups, g) {
			m.client = e
		}
		if e := c.rdvs[id]; e != nil && covers(e.groups, g) {
			m.rdv = e
		}
		switch i := slices.IndexFunc(l, func(m member) bool { return m.id == id }); {
		case i < 0 && m != member{id: id}:
			c.lists[g] = append(l, m)
		case i >= 0 && m == member{id: id}:
			c.lists[g] = slices.Delete(l, i, i+1)
		case i >= 0:
			l[i] = m
		}
	}
	for _, g := range old {
		if c.named[g]--; c.named[g] == 0 {
			delete(c.named, g)
			delete(c.lists, g)
		}
	}
}

// connect sends the peer's group set to every seed that is neither
// behind an eviction breaker nor inside its failure backoff window — in
// ActiveStandby mode to the elected one alone — or, with no group left,
// a disconnect. A connect names the epoch of the live lease the peer
// holds through the seed, if any. The driver reports the result of each
// connect (inRound).
func (c *core) connect(now time.Time, out []output) []output {
	if c.cfg.ActiveStandby && len(c.cfg.Seeds) > 0 {
		c.elect(now)
	}
	op := opConnect
	if len(c.groups) == 0 {
		op = opDisconnect
	}
	for i, seed := range c.cfg.Seeds {
		if c.cfg.ActiveStandby && i != c.active || c.blocked(seed, now) || now.Before(c.seeds[i].next) {
			continue
		}
		o := output{kind: outSend, op: op, to: seed, groups: c.groups, seed: uint64(i) + 1}
		for _, e := range c.rdvs {
			if e.seed == o.seed && !now.After(e.expires) {
				o.epoch = e.epoch
			}
		}
		out = append(out, o)
	}
	return out
}

// elect is the failover state machine: keep the active seed unless the
// failure detector has declared it dead — its breaker is open, or
// EvictAfter consecutive connects failed — then elect the next
// healthy standby, round-robin, clear its backoff so the re-lease is
// immediate, and drop the lease granted through the dead one. Clients
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

// remove deletes every lease gone reports: a tick's expiry, an
// eviction, an election.
func (c *core) remove(gone func(*peerEntry) bool) {
	for _, table := range []map[jid.ID]*peerEntry{c.clients, c.rdvs} {
		for id, e := range table {
			if gone(e) {
				c.regroup(table, id, e, nil)
			}
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
// core again on the results it decides on: a seed's connect, so a dead
// seed counts once a round, and a failed probe.
func perform(outs []output, send func(output) error, feed func(input), epoch func(rdv jid.ID, group string)) {
	for _, o := range outs {
		switch {
		case o.kind == outEpoch:
			epoch(o.rdv, o.groups[0])
		case o.op == opConnect:
			feed(input{kind: inRound, seed: o.seed, failed: send(o) != nil})
		default:
			if send(o) != nil && o.op == opPing {
				feed(input{kind: inSent, from: o.to, failed: true})
			}
		}
	}
}
