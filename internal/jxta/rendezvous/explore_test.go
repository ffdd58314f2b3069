package rendezvous

// explore_test.go enumerates the control core's behaviour. Two
// rendezvous, two edges and two groups run on the real core and the
// driver's perform, over a network the explorer drives one input at a
// time: every ordering of ticks, joins and leaves, deliveries, losses
// and duplicates of control frames, a restart under the same ID and
// clock jumps, to a fixed depth, with states hashed so each is expanded
// once. Six invariants are checked: (i)–(v) after every input, (vi)
// once for each state the search meets. A violation prints the inputs
// that led to it, which xReplay runs again.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/tps-p2p/tps/internal/israce"
	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/jxta/jid"
)

// xDepth is how many inputs the explorer enumerates: the shortest known
// traces to a lost epoch and to a failover's second seed are 7 long.
const xDepth = 7

const xTTL = 3 * time.Second

var (
	xGroups = []string{"g0", "g1"}
	xJumps  = []time.Duration{xTTL / 3, xTTL, 2 * xTTL}
	// xListed are the groups whose targets (i) checks: the two, and one
	// no lease names.
	xListed = []string{"g0", "g1", "other"}
	xStart  = time.Unix(1_000_000, 0)
)

// xSetup is one cluster to explore: peer 0 and 1 are the rendezvous,
// 2 and 3 the edges. Seeds are configured under another name of their
// peer than the address it reports, as a host name is.
type xSetup struct {
	name string
	cfgs [4]Config
	// joined are the groups each edge is in at the start, settled: its
	// leases granted before the exploration begins.
	joined [2][]int
}

func xSetups() []xSetup {
	cfg := func(role Role, as bool, seeds ...endpoint.Address) Config {
		c := Config{Role: role, Seeds: seeds, LeaseTTL: xTTL, SuspectAfter: 1, EvictAfter: 2, ActiveStandby: as}
		c.normalise()
		return c
	}
	return []xSetup{{
		name: "seeds",
		// r0 and r1 lease every group with each other, so each is the
		// other's client and rendezvous at once; e0 leases with r0, e1
		// with both.
		cfgs: [4]Config{cfg(RoleRendezvous, false, "dns:r1"), cfg(RoleRendezvous, false, "dns:r0"),
			cfg(RoleEdge, false, "dns:r0"), cfg(RoleEdge, false, "dns:r0", "dns:r1")},
		joined: [2][]int{{0}, {1}},
	}, {
		name: "active-standby",
		cfgs: [4]Config{cfg(RoleRendezvous, false), cfg(RoleRendezvous, false),
			cfg(RoleEdge, true, "dns:r0", "dns:r1"), cfg(RoleEdge, true, "dns:r0", "dns:r1")},
		joined: [2][]int{{0}, {1}},
	}}
}

var xNames = [4]endpoint.Address{"r0", "r1", "e0", "e1"}

// xIndex is the peer an address reaches, by the address it reports or
// by the name it is a seed under.
func xIndex(addr endpoint.Address) int {
	return slices.Index(xNames[:], endpoint.Address(strings.TrimPrefix(string(addr), "dns:")))
}

var xIDs = [4]jid.ID{jid.FromSeed(jid.KindPeer, 1), jid.FromSeed(jid.KindPeer, 2), jid.FromSeed(jid.KindPeer, 3), jid.FromSeed(jid.KindPeer, 4)}

func xID(p int) jid.ID { return xIDs[p] }

func xIndexOf(id jid.ID) int { return slices.Index(xIDs[:], id) }

// xFrame is a control frame in flight.
type xFrame struct {
	from, to     int
	op           string
	groups       []string
	lease, epoch uint64
	seed         uint64
	sent         time.Time
}

func (f xFrame) String(now time.Time) string {
	s := fmt.Sprintf("%s>%s %s %q", xNames[f.from], xNames[f.to], f.op, f.groups)
	if f.op == opLease || f.epoch != 0 {
		s += fmt.Sprintf(" epoch %#x", f.epoch)
	}
	return s + fmt.Sprintf(" age %v", now.Sub(f.sent))
}

// xEvent is one input of the explorer. A frame is named by its String
// at the time of the event.
type xEvent struct {
	kind  string // tick join leave deliver drop dup restart jump
	peer  int
	group int
	frame string
	jump  time.Duration
	at    int // the frame's index in flight, plus one, when known
}

// String is the event as a Go literal, for a test to replay.
func (e xEvent) String() string {
	switch e.kind {
	case "join", "leave":
		return fmt.Sprintf("{kind: %q, peer: %d, group: %d}", e.kind, e.peer, e.group)
	case "deliver", "drop", "dup":
		return fmt.Sprintf("{kind: %q, frame: %#q}", e.kind, e.frame)
	case "jump":
		return fmt.Sprintf("{kind: %q, jump: %d * time.Millisecond}", e.kind, e.jump.Milliseconds())
	}
	return fmt.Sprintf("{kind: %q, peer: %d}", e.kind, e.peer)
}

// xWorld is one state: the peers' cores, the frames in flight, the
// clock, what is left of the budgets, and the ghost state the checks
// read — what the explorer saw, kept apart from what the cores keep.
// Cores are shared between a state and the states made from it, and
// copied by the first step that changes one (mut).
type xWorld struct {
	setup   *xSetup
	now     time.Time
	cores   [4]*core
	owned   [4]bool
	enc     [4][]byte // each core's part of the hash, nil when stale
	touched [4]bool   // cores the current input changed, or all on a jump
	down    [2]bool
	boots   [2]int
	net     []xFrame
	joined  [2][2]bool
	// By (peer, rendezvous, group index + 1, 0 for ""): the epoch of the
	// last grant the peer accepted that covered the group, while its
	// lease is live and, on an edge, the group joined; the latest expiry
	// the rendezvous ever gave the peer's lease while it named the group.
	held   [4][2][3]uint64
	rdvMax [4][2][3]time.Time
	// budgets
	drops, dups, restarts, jumps, moves int

	reports [][3]int // lease epochs heard in the current step: peer, rendezvous, group
	bad     string
	quiet   bool // check nothing: a suffix run for its end state
	// prefix is the inputs that made the start state; trail, while set,
	// records every input applied.
	prefix []xEvent
	trail  *[]xEvent
}

func xGroup(g string) int { return slices.Index(xGroups, g) + 1 }

// xName is the group xGroup numbers g.
func xName(g int) string {
	if g == 0 {
		return ""
	}
	return xGroups[g-1]
}

// xSet is a group set as bits of xGroup.
func xSet(set []string) int {
	n := 0
	for _, g := range set {
		n |= 1 << xGroup(g)
	}
	return n
}

// xNew is the settled start of setup: its joins, then two rounds of
// ticks and deliveries. The inputs it took are the world's prefix.
func xNew(s *xSetup) *xWorld {
	w := &xWorld{setup: s, now: xStart, drops: 1, dups: 1, restarts: 1, jumps: 1, moves: 4}
	for p := range w.cores {
		w.cores[p] = newCore(&s.cfgs[p], xBase(p, 0))
		w.owned[p] = true
	}
	w.trail = &w.prefix
	for e, gs := range s.joined {
		for _, g := range gs {
			w.apply(xEvent{kind: "join", peer: 2 + e, group: g})
		}
	}
	w.settle(2)
	w.trail, w.moves = nil, 1
	return w
}

func xBase(p, boot int) uint64 { return uint64(p+1)<<48 | uint64(boot)<<32 }

// settle runs rounds of a tick of every peer and the delivery of every
// frame in flight, in order.
func (w *xWorld) settle(rounds int) {
	for range rounds {
		for p := range w.cores {
			if p >= 2 || !w.down[p] {
				w.apply(xEvent{kind: "tick", peer: p})
			}
		}
		for i := 0; len(w.net) > 0 && i < 64; i++ {
			w.apply(xEvent{kind: "deliver", frame: w.net[0].String(w.now), at: 1})
		}
	}
}

func (w *xWorld) clone() *xWorld {
	c := *w
	c.owned = [4]bool{}
	c.net = slices.Clone(w.net)
	c.reports = nil
	return &c
}

// mut returns peer p's core for a step to change.
func (w *xWorld) mut(p int) *core {
	if !w.owned[p] {
		w.cores[p], w.owned[p] = cloneCore(w.cores[p]), true
	}
	w.enc[p], w.touched[p] = nil, true
	return w.cores[p]
}

func cloneCore(c *core) *core {
	n := *c
	n.groups = slices.Clone(c.groups)
	cp := func(t map[jid.ID]*peerEntry) map[jid.ID]*peerEntry {
		out := make(map[jid.ID]*peerEntry, len(t))
		for k, e := range t {
			e2 := *e
			out[k] = &e2
		}
		return out
	}
	n.clients, n.rdvs = cp(c.clients), cp(c.rdvs)
	n.det = make(detector, len(c.det))
	for a, h := range c.det {
		h2 := *h
		n.det[a] = &h2
	}
	n.seeds = slices.Clone(c.seeds)
	// The lists hold the entries: the copy's hold the copy's entries.
	n.lists = make(map[string][]member, len(c.lists))
	for g, l := range c.lists {
		n.lists[g] = make([]member, len(l))
		for i, m := range l {
			n.lists[g][i] = member{id: m.id}
			if m.client != nil {
				n.lists[g][i].client = n.clients[m.id]
			}
			if m.rdv != nil {
				n.lists[g][i].rdv = n.rdvs[m.id]
			}
		}
	}
	n.named = maps.Clone(c.named)
	n.visit = nil
	return &n
}

// events lists the inputs enabled in w, in a fixed order: the search
// meets a restart before it meets what the restart changes.
func (w *xWorld) events() []xEvent {
	var out []xEvent
	for r := range 2 {
		switch {
		case w.down[r]:
			out = append(out, xEvent{kind: "revive", peer: r})
		case w.restarts > 0:
			out = append(out, xEvent{kind: "restart", peer: r}, xEvent{kind: "kill", peer: r})
		}
	}
	for p := range w.cores {
		if p >= 2 || !w.down[p] {
			out = append(out, xEvent{kind: "tick", peer: p})
		}
	}
	if w.moves > 0 {
		for e := range 2 {
			for g := range xGroups {
				kind := "join"
				if w.joined[e][g] {
					kind = "leave"
				}
				out = append(out, xEvent{kind: kind, peer: 2 + e, group: g})
			}
		}
	}
	frames := make([]xEvent, 0, len(w.net))
	for i, f := range w.net {
		frames = append(frames, xEvent{frame: f.String(w.now), at: i + 1})
	}
	slices.SortStableFunc(frames, func(a, b xEvent) int { return strings.Compare(a.frame, b.frame) })
	frames = slices.CompactFunc(frames, func(a, b xEvent) bool { return a.frame == b.frame })
	for _, f := range frames {
		for _, kind := range []string{"deliver", "drop", "dup"} {
			if kind == "deliver" || kind == "drop" && w.drops > 0 || kind == "dup" && w.dups > 0 {
				f.kind = kind
				out = append(out, f)
			}
		}
	}
	if w.jumps > 0 {
		for _, d := range xJumps {
			out = append(out, xEvent{kind: "jump", jump: d})
		}
	}
	return out
}

func (w *xWorld) fail(format string, args ...any) {
	if w.bad == "" {
		w.bad = fmt.Sprintf(format, args...)
	}
}

// apply runs one input, then checks the invariants. A world that
// broke one takes no more inputs.
func (w *xWorld) apply(ev xEvent) {
	if w.bad != "" {
		return
	}
	if w.trail != nil {
		*w.trail = append(*w.trail, ev)
	}
	w.reports, w.touched = w.reports[:0], [4]bool{}
	var grant *xFrame
	switch ev.kind {
	case "tick":
		w.step(ev.peer, input{kind: inTick})
	case "join", "leave":
		w.moves--
		w.joined[ev.peer-2][ev.group] = ev.kind == "join"
		kind := inJoin
		if ev.kind == "leave" {
			kind = inLeave
		}
		w.step(ev.peer, input{kind: kind, group: xGroups[ev.group]})
	case "deliver", "drop", "dup":
		i := ev.at - 1
		if i < 0 {
			i = slices.IndexFunc(w.net, func(f xFrame) bool { return f.String(w.now) == ev.frame })
		}
		if i < 0 {
			w.fail("no such frame: %s is not in flight; %v are", ev.frame, w.inFlight())
			return
		}
		f := w.net[i]
		switch ev.kind {
		case "dup":
			w.dups--
			w.net = append(w.net, f)
			return
		case "drop":
			w.drops--
			w.net = slices.Delete(w.net, i, i+1)
			return
		}
		w.net = slices.Delete(w.net, i, i+1)
		in := input{from: xNames[f.from], src: xID(f.from), groups: f.groups, epoch: f.epoch, seed: f.seed}
		switch f.op {
		case opConnect:
			in.kind = inConnect
		case opLease:
			in.kind, in.lease = inGrant, f.lease
			grant = &f
		case opDisconnect:
			in.kind = inDisconnect
		case opPing:
			// The driver answers a ping itself.
			_ = w.send(f.to, output{kind: outSend, op: opPong, to: xNames[f.from]})
			return
		case opPong:
			in.kind = inPong
		}
		w.step(f.to, in)
	case "restart", "kill":
		// The rendezvous comes back under its ID with nothing of its
		// state, at once or on revive; what was in flight to it is lost,
		// and what is sent to it while it is down fails.
		w.restarts--
		r := ev.peer
		w.net = slices.DeleteFunc(w.net, func(f xFrame) bool { return f.to == r })
		if ev.kind == "kill" {
			w.down[r] = true
			break
		}
		fallthrough
	case "revive":
		r := ev.peer
		w.down[r] = false
		w.boots[r]++
		w.cores[r], w.owned[r], w.enc[r], w.touched[r] = newCore(&w.setup.cfgs[r], xBase(r, w.boots[r])), true, nil, true
	case "jump":
		w.jumps--
		w.advance(ev.jump)
	}
	if !w.quiet {
		w.checkEpochs(grant)
		w.check()
	}
}

// inFlight names the frames in flight.
func (w *xWorld) inFlight() (names []string) {
	for _, f := range w.net {
		names = append(names, f.String(w.now))
	}
	return names
}

// advance moves the clock on by d. The network delivers a frame within
// one TTL or loses it.
func (w *xWorld) advance(d time.Duration) {
	w.now = w.now.Add(d)
	w.net = slices.DeleteFunc(w.net, func(f xFrame) bool { return w.now.Sub(f.sent) > xTTL })
	w.enc, w.touched = [4][]byte{}, [4]bool{true, true, true, true}
}

func (w *xWorld) step(p int, in input) {
	outs := w.mut(p).step(w.now, in, nil)
	perform(outs, func(o output) error { return w.send(p, o) },
		func(in input) { w.step(p, in) },
		func(rdv jid.ID, group string) {
			w.reports = append(w.reports, [3]int{p, xIndexOf(rdv), xGroup(group)})
		})
}

// send puts a frame in flight, or fails when its peer is down.
func (w *xWorld) send(from int, o output) error {
	to := xIndex(o.to)
	if to < 2 && w.down[to] {
		return errDown
	}
	w.net = append(w.net, xFrame{from: from, to: to, op: o.op, groups: o.groups, lease: o.lease, epoch: o.epoch, seed: o.seed, sent: w.now})
	return nil
}

var errDown = errors.New("peer down")

// checkEpochs is invariant (v): a grant the peer accepts tells the
// listeners of each group it makes covered by the peer's lease with
// that rendezvous in its epoch — a group the live lease did not cover
// in that epoch since the peer joined it, because the epoch is new, the
// peer's side of the old one lapsed, or the group was joined since —
// once each, and nothing else ever reaches them. Within one epoch a
// joined group that a grant covered stays covered: a grant that took it
// away would have it heard again.
func (w *xWorld) checkEpochs(grant *xFrame) {
	var want [][3]int
	if grant != nil {
		e := w.cores[grant.to].rdvs[xID(grant.from)]
		if e != nil && e.epoch == grant.epoch && e.expires.Equal(w.now.Add(time.Duration(grant.lease)*time.Millisecond)) {
			for _, g := range e.groups {
				k := [3]int{grant.to, grant.from, xGroup(g)}
				if w.held[k[0]][k[1]][k[2]] != grant.epoch {
					want = append(want, k)
				}
				w.held[k[0]][k[1]][k[2]] = grant.epoch
			}
		}
	}
	got := slices.Clone(w.reports)
	slices.SortFunc(got, func(a, b [3]int) int { return slices.Compare(a[:], b[:]) })
	if slices.Equal(got, want) {
		return
	}
	switch {
	case grant == nil:
		w.fail("(v) an epoch was heard with no grant: %v heard", got)
	case len(got) < len(want):
		w.fail("(v) an epoch went unheard: a grant of epoch %#x from %s for %q reached the listeners of %s for %v, want %v",
			grant.epoch, xNames[grant.from], grant.groups, xNames[grant.to], got, want)
	default:
		w.fail("(v) an epoch was heard again: a grant of epoch %#x from %s for %q reached the listeners of %s for %v, want %v",
			grant.epoch, xNames[grant.from], grant.groups, xNames[grant.to], got, want)
	}
}

// check is invariants (i) to (iv) on w.
//
// A core no input touched since the last check is left alone: every
// property of it depends on its own state, the clock, and ghost state
// that only grows (rdvMax) or changes with the core (joined).
func (w *xWorld) check() {
	now := w.now
	for r := range 2 {
		if !w.touched[r] {
			continue
		}
		for id, e := range w.cores[r].clients {
			for _, g := range e.groups {
				x := &w.rdvMax[xIndexOf(id)][r][xGroup(g)]
				if e.expires.After(*x) {
					*x = e.expires
				}
			}
		}
	}
	var live [4][2]bool
	for p, c := range w.cores {
		if !w.touched[p] {
			continue
		}
		// (i) the fan-out's targets are the live, unbanned leases, each
		// peer once: all of them, and those of clients alone.
		for _, g := range xListed {
			l, named := c.lists[g]
			if !named {
				l = c.lists[""]
			}
			var got, want [2]uint8
			live := func(e *peerEntry) bool { return e != nil && !now.After(e.expires) }
			for _, m := range l {
				bit := uint8(1) << xIndexOf(m.id)
				if (got[0]|got[1])&bit != 0 {
					w.fail("(i) a target is listed twice: %s lists %v twice for %q", xNames[p], xNames[xIndexOf(m.id)], g)
				}
				if m.client != nil && m.client != c.clients[m.id] || m.rdv != nil && m.rdv != c.rdvs[m.id] {
					w.fail("(i) a target is not the peer's lease: %s lists %v for %q with a lease it no longer holds", xNames[p], xNames[xIndexOf(m.id)], g)
				}
				if live(m.client) || live(m.rdv) {
					got[0] |= bit
				}
				if live(m.client) {
					got[1] |= bit
				}
			}
			for i, table := range []map[jid.ID]*peerEntry{c.clients, c.rdvs} {
				for id, e := range table {
					if covers(e.groups, g) && !now.After(e.expires) && !c.det.banned(e.addr, now) {
						want[0] |= 1 << xIndexOf(id)
						if i == 0 {
							want[1] |= 1 << xIndexOf(id)
						}
					}
				}
			}
			if got != want {
				w.fail("(i) the targets are not the live leases: %s sends %q to peers %04b and to clients %04b, its live leases are with %04b and %04b", xNames[p], g, got[0], got[1], want[0], want[1])
			}
		}
		seeds := map[endpoint.Address]bool{}
		for id, e := range c.rdvs {
			if now.After(e.expires) {
				continue
			}
			r := xIndexOf(id)
			live[p][r] = true
			// (v) within one epoch, a joined group a grant covered stays
			// covered.
			for g, epoch := range w.held[p][r] {
				if epoch != 0 && epoch == e.epoch && (p < 2 || g > 0 && w.joined[p-2][g-1]) && !slices.Contains(e.groups, xName(g)) {
					w.fail("(v) a covered group was taken away: %s's lease with %s in epoch %#x no longer covers %q", xNames[p], xNames[r], epoch, xName(g))
				}
			}
			for _, group := range e.groups {
				g := xGroup(group)
				// (ii) an edge's lease of a group lasts no longer than one
				// TTL past the latest the rendezvous gave its lease of it.
				if max := w.rdvMax[p][r][g]; e.expires.After(max.Add(xTTL)) {
					w.fail("(ii) a lease outlived the rendezvous' by more than a TTL: %s holds %s's lease for %q until %v, past %s's %v by more than a TTL",
						xNames[p], xNames[r], group, e.expires.Sub(xStart), xNames[r], max.Sub(xStart))
				}
				// (iii) an edge's leases cover only the groups it is in.
				if p >= 2 && (g == 0 || !w.joined[p-2][g-1]) {
					w.fail("(iii) a lease for a group left: %s holds a lease with %s for %q, which it is not in", xNames[p], xNames[r], group)
				}
			}
			seeds[e.addr] = true
		}
		// (iv) under ActiveStandby, live leases with one seed at most.
		if c.cfg.ActiveStandby && len(seeds) > 1 {
			w.fail("(iv) leases with two seeds: %s holds live leases with %d seeds", xNames[p], len(seeds))
		}
	}
	// The ghost epoch of a group is nobody's once the lease is not live
	// or the edge left the group.
	for p := range live {
		if !w.touched[p] {
			continue
		}
		for r := range live[p] {
			for g := range w.held[p][r] {
				if !live[p][r] || p >= 2 && (g == 0 || !w.joined[p-2][g-1]) {
					w.held[p][r][g] = 0
				}
			}
		}
	}
}

// xAddrs are the addresses a send can go to: each peer's, and each
// rendezvous' under the name it is a seed under.
var xAddrs = slices.Concat(xNames[:], []endpoint.Address{"dns:r0", "dns:r1"})

// checkArrivals is invariant (vi), checked on a state the search has not
// met before: on a core whose detector is empty, a send that arrived,
// at any address, is the identity — the core's key stays as it is and
// no output is decided. The driver counts on it: a fan-out whose sends
// all arrived steps the core only while the detector holds an entry
// (settle). As check does, it looks at the cores the last input
// touched. The arrivals are stepped on the core itself when this state
// owns it — a core they changed is a violation, and the search goes no
// further from it — and on a copy otherwise.
func (w *xWorld) checkArrivals() {
	for p, c := range w.cores {
		if !w.touched[p] || len(c.det) > 0 || w.bad != "" {
			continue
		}
		if w.enc[p] == nil {
			w.enc[p] = w.encode(p)
		}
		if !w.owned[p] {
			c = cloneCore(c)
		}
		for _, addr := range xAddrs {
			if outs := c.step(w.now, input{kind: inSent, from: addr}, nil); len(outs) > 0 {
				w.fail("(vi) an arrival decided something: a send to %s that arrived made %s, whose detector was empty, send %s to %s", addr, xNames[p], outs[0].op, outs[0].to)
			}
		}
		if !slices.Equal(xKey(p, c, w.now), w.enc[p]) {
			w.fail("(vi) an arrival changed the core: sends that arrived changed %s, whose detector was empty", xNames[p])
		}
	}
}

// converges is the second half of (iv): once the network heals, a fixed
// suffix of ticks and in-order deliveries ends with every ActiveStandby
// edge leasing each of its groups with exactly one seed.
func (w *xWorld) converges() string {
	h := w.clone()
	h.quiet = true
	for range 5 {
		h.advance(xTTL / 3)
		h.settle(1)
	}
	for e := range 2 {
		c := h.cores[2+e]
		if !c.cfg.ActiveStandby {
			continue
		}
		seeds := map[endpoint.Address]bool{}
		for g, in := range h.joined[e] {
			leased := false
			for _, l := range c.rdvs {
				if slices.Contains(l.groups, xGroups[g]) && !h.now.After(l.expires) {
					leased, seeds[l.addr] = true, true
				}
			}
			if in && !leased {
				return fmt.Sprintf("(iv) no convergence: after the network healed, %s leases %q with no seed", xNames[2+e], xGroups[g])
			}
		}
		if len(seeds) > 1 {
			return fmt.Sprintf("(iv) no convergence: after the network healed, %s leases with %d seeds", xNames[2+e], len(seeds))
		}
	}
	return ""
}

// hash is the state's identity: the cores, the network and the ghost
// state, with every time relative to now.
func (w *xWorld) hash() uint64 {
	var h xHash
	for p := range w.cores {
		if w.enc[p] == nil {
			w.enc[p] = w.encode(p)
		}
		h.bytes(w.enc[p])
	}
	now := w.now.UnixMilli()
	frames := make([][3]int64, 0, len(w.net))
	for _, f := range w.net {
		frames = append(frames, [3]int64{int64(int(f.seed)<<16 | f.from<<12 | f.to<<8 | xSet(f.groups)<<4 | xOps[f.op]), int64(f.epoch), now - f.sent.UnixMilli()})
	}
	slices.SortFunc(frames, func(a, b [3]int64) int { return slices.Compare(a[:], b[:]) })
	for _, f := range frames {
		h.nums(f[:]...)
	}
	for p := range w.held {
		for r := range w.held[p] {
			for g := range w.held[p][r] {
				h.nums(int64(w.held[p][r][g]), xRel(w.rdvMax[p][r][g], w.now, -xTTL))
			}
		}
	}
	h.nums(int64(w.drops<<12|w.dups<<8|w.restarts<<4|w.jumps<<2|w.moves), xBits(w.down[:]...), xBits(w.joined[0][:]...), xBits(w.joined[1][:]...))
	return uint64(h)
}

var xOps = map[string]int{opConnect: 1, opLease: 2, opDisconnect: 3, opPing: 4, opPong: 5}

// xHash is a 64-bit multiply-and-rotate hash: deterministic, so a run
// counts the same states as the last.
type xHash uint64

func (h *xHash) nums(vs ...int64) {
	for _, v := range vs {
		x := (uint64(*h) ^ uint64(v)) * 0x9e3779b97f4a7c15
		*h = xHash(x<<31 | x>>33)
	}
}

func (h *xHash) bytes(b []byte) {
	for ; len(b) >= 8; b = b[8:] {
		h.nums(int64(binary.LittleEndian.Uint64(b)))
	}
	var tail [8]byte
	copy(tail[:], b)
	h.nums(int64(binary.LittleEndian.Uint64(tail[:])), int64(len(b)))
}

func xBits(bs ...bool) int64 {
	var n int64
	for i, b := range bs {
		if b {
			n |= 1 << i
		}
	}
	return n
}

// xRel is t relative to now in milliseconds, any instant before now+floor
// (or none) being one.
func xRel(t, now time.Time, floor time.Duration) int64 {
	d := t.UnixMilli() - now.UnixMilli()
	if t.IsZero() || d < floor.Milliseconds() {
		d = floor.Milliseconds() - 1
	}
	return d
}

// encode is core p's part of the hash.
func (w *xWorld) encode(p int) []byte { return xKey(p, w.cores[p], w.now) }

// xKey is core c's part of the hash as peer p's at now.
func xKey(p int, c *core, now time.Time) []byte {
	b := make([]byte, 0, 256)
	num := func(v int64) { b = binary.AppendVarint(b, v) }
	num(int64(p))
	if c.closed {
		num(-1)
	}
	for g := range xGroups {
		if slices.Contains(c.groups, xGroups[g]) {
			num(int64(g))
		}
	}
	for _, table := range []map[jid.ID]*peerEntry{c.clients, c.rdvs} {
		var rows [][5]int64
		for id, e := range table {
			rows = append(rows, [5]int64{int64(xIndexOf(id)<<4 | xSet(e.groups)), int64(xIndex(e.addr)), xRel(e.expires, now, 0), int64(e.epoch), int64(e.seed)})
		}
		slices.SortFunc(rows, func(a, b [5]int64) int { return slices.Compare(a[:], b[:]) })
		num(int64(len(rows)))
		for _, r := range rows {
			for _, v := range r {
				num(v)
			}
		}
	}
	var rows [][4]int64
	for a, h := range c.det {
		rows = append(rows, [4]int64{int64(xIndex(a)), int64(h.fails), xBits(h.suspect), xRel(h.bannedUntil, now, 0)})
	}
	slices.SortFunc(rows, func(a, b [4]int64) int { return slices.Compare(a[:], b[:]) })
	for _, r := range rows {
		for _, v := range r {
			num(v)
		}
	}
	for _, s := range c.seeds {
		num(int64(s.fails))
		num(xRel(s.next, now, 0))
	}
	num(int64(c.active))
	return b
}

// xViolation is the first trace the explorer found to one kind of
// violation: the part of its message before the colon.
type xViolation struct {
	msg   string
	trace []xEvent
}

// explore searches every input ordering from w to depth. When it finds
// a violation it searches again, deepening one input at a time, so that
// each kind of violation is shown by one of the shortest traces to it. It returns the number of distinct states
// within depth and the violations, one per kind.
func explore(w *xWorld, depth int) (states int, bad map[string]xViolation) {
	bad = map[string]xViolation{}
	if states = exploreTo(w, depth, bad); len(bad) > 0 {
		clear(bad)
		for d := 1; d <= depth; d++ {
			exploreTo(w, d, bad)
		}
	}
	return states, bad
}

// exploreTo is a depth-first search to depth that expands a state again
// only when it is reached shallower than before, and no state past a
// violation.
func exploreTo(w *xWorld, depth int, bad map[string]xViolation) (states int) {
	seen := map[uint64]int{}
	var path []xEvent
	var dfs func(w *xWorld, left int)
	dfs = func(w *xWorld, left int) {
		for _, ev := range w.events() {
			n := w.clone()
			n.apply(ev)
			path = append(path, ev)
			h := n.hash()
			d, ok := seen[h]
			if !ok {
				n.checkArrivals()
			}
			if !ok && n.bad == "" && n.setup.cfgs[2].ActiveStandby {
				n.bad = n.converges()
			}
			if n.bad != "" {
				kind, _, _ := strings.Cut(n.bad, ":")
				if _, found := bad[kind]; !found {
					bad[kind] = xViolation{n.bad, slices.Clone(path)}
				}
			} else if !ok || d < left-1 {
				seen[h] = left - 1
				if left > 1 {
					dfs(n, left-1)
				}
			}
			path = path[:len(path)-1]
		}
	}
	seen[w.hash()] = depth
	dfs(w, depth)
	return len(seen)
}

// xReplay runs a trace the explorer printed from the start of setup and
// returns the violation it ends in, or "".
func xReplay(s *xSetup, trace []xEvent) string {
	w := xNew(s)
	for _, ev := range trace {
		w.apply(ev)
		w.checkArrivals()
		if w.bad == "" && s.cfgs[2].ActiveStandby {
			w.bad = w.converges()
		}
		if w.bad != "" {
			return w.bad
		}
	}
	return ""
}

func xTrace(trace []xEvent) string {
	var b strings.Builder
	for _, ev := range trace {
		fmt.Fprintf(&b, "\t%v,\n", ev)
	}
	return b.String()
}

// TestControlPlaneExplorer explores both setups to xDepth, one after
// the other. It is deterministic, so repeating it finds nothing new, and
// it is too slow under the race detector to be worth running there.
func TestControlPlaneExplorer(t *testing.T) {
	if israce.Enabled {
		t.Skip("deterministic and slow under the race detector")
	}
	for _, s := range xSetups() {
		t.Run(s.name, func(t *testing.T) {
			start := time.Now()
			w := xNew(&s)
			w.touched = [4]bool{true, true, true, true}
			w.checkArrivals()
			if w.bad == "" && s.cfgs[2].ActiveStandby {
				w.bad = w.converges()
			}
			if w.bad != "" {
				t.Fatalf("%s\nin the %s setup's own inputs:\n%s", w.bad, s.name, xTrace(w.prefix))
			}
			states, bad := explore(w, xDepth)
			t.Logf("%d distinct states to depth %d in %v", states, xDepth, time.Since(start).Round(time.Millisecond))
			for _, kind := range slices.Sorted(maps.Keys(bad)) {
				v := bad[kind]
				t.Errorf("%s\nafter %d inputs from the settled %s setup:\n%s", v.msg, len(v.trace), s.name, xTrace(v.trace))
			}
		})
	}
}

// TestExplorerTraces replays traces the explorer printed against the
// rules this package had before lease epochs or before a grant added to
// the groups its epoch covered, or that it reaches only past its depth.
// Each ended in a violation then and ends in none now.
func TestExplorerTraces(t *testing.T) {
	setups := map[string]*xSetup{}
	for _, s := range xSetups() {
		setups[s.name] = &s
	}
	for _, tc := range []struct {
		name, setup string
		trace       []xEvent
	}{{
		// The restarted rendezvous' first grant starts an epoch and is
		// lost; the next is a renewal on both sides.
		name: "a lost grant of a new epoch", setup: "seeds", trace: []xEvent{
			{kind: "restart", peer: 0},
			{kind: "tick", peer: 2},
			{kind: "deliver", frame: `e0>r0 connect ["g0"] epoch 0x1000000000000 age 0s`},
			{kind: "drop", frame: `r0>e0 lease ["g0"] epoch 0x1000100000000 age 0s`},
			{kind: "tick", peer: 2},
			{kind: "deliver", frame: `e0>r0 connect ["g0"] epoch 0x1000000000000 age 0s`},
			{kind: "deliver", frame: `r0>e0 lease ["g0"] epoch 0x1000100000000 age 0s`},
		},
	}, {
		// Both copies of a new lease's grant said it was new. Here the
		// grant adds g1 to e0's lease, and only its first copy may say so.
		name: "a duplicated grant of a new epoch", setup: "seeds", trace: []xEvent{
			{kind: "join", peer: 2, group: 1},
			{kind: "deliver", frame: `e0>r0 connect ["g0" "g1"] epoch 0x1000000000000 age 0s`},
			{kind: "dup", frame: `r0>e0 lease ["g0" "g1"] epoch 0x1000000000000 age 0s`},
			{kind: "deliver", frame: `r0>e0 lease ["g0" "g1"] epoch 0x1000000000000 age 0s`},
			{kind: "deliver", frame: `r0>e0 lease ["g0" "g1"] epoch 0x1000000000000 age 0s`},
		},
	}, {
		// The election moved to r1 and left the live leases with r0.
		name: "a failover keeps the dead seed's leases", setup: "active-standby", trace: []xEvent{
			{kind: "kill", peer: 0},
			{kind: "tick", peer: 2},
			{kind: "jump", jump: 1000 * time.Millisecond},
			{kind: "tick", peer: 2},
			{kind: "tick", peer: 2},
			{kind: "deliver", frame: `e0>r1 connect ["g0"] age 0s`},
			{kind: "deliver", frame: `r1>e0 lease ["g0"] epoch 0x2000000000000 age 0s`},
		},
	}, {
		// A grant the dead seed sent before it died arrives after the
		// failover.
		name: "a late grant from the dead seed", setup: "active-standby", trace: []xEvent{
			{kind: "tick", peer: 2},
			{kind: "deliver", frame: `e0>r0 connect ["g0"] epoch 0x1000000000000 age 0s`},
			{kind: "kill", peer: 0},
			{kind: "tick", peer: 2},
			{kind: "jump", jump: 1000 * time.Millisecond},
			{kind: "tick", peer: 2},
			{kind: "tick", peer: 2},
			{kind: "deliver", frame: `e0>r1 connect ["g0"] age 0s`},
			{kind: "deliver", frame: `r1>e0 lease ["g0"] epoch 0x2000000000000 age 0s`},
			{kind: "deliver", frame: `r0>e0 lease ["g0"] epoch 0x1000000000000 age 1s`},
		},
	}, {
		// The grant of a renewal sent before the edge joined g1 arrives
		// after the grant that covers g1, in the same epoch: with the set
		// it names alone, it took g1 away.
		name: "a reordered grant for a smaller set", setup: "seeds", trace: []xEvent{
			{kind: "tick", peer: 2},
			{kind: "join", peer: 2, group: 1},
			{kind: "deliver", frame: `e0>r0 connect ["g0"] epoch 0x1000000000000 age 0s`},
			{kind: "deliver", frame: `e0>r0 connect ["g0" "g1"] epoch 0x1000000000000 age 0s`},
			{kind: "deliver", frame: `r0>e0 lease ["g0" "g1"] epoch 0x1000000000000 age 0s`},
			{kind: "deliver", frame: `r0>e0 lease ["g0"] epoch 0x1000000000000 age 0s`},
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			if bad := xReplay(setups[tc.setup], tc.trace); bad != "" {
				t.Fatal(bad)
			}
		})
	}
}
