package recovery

// explore_test.go enumerates the recovery core's behaviour. One origin
// log, one subscriber core pulling windows of two records, and the
// server's verdict function run over a network the explorer drives one
// input at a time: every ordering of appends, retention trims, a log
// reset, new lease epochs, rounds — ticked or kicked — and what became
// of their sends, a subscriber restart, and the delivery, loss or
// duplication of any frame in flight — live events, requests, replayed
// events and the range signals that answer requests — with states
// hashed so each is expanded once. Delivering any frame in flight
// covers reordering. Invariant 3 of ROBUSTNESS.md (monotone cursors) is
// checked at every state, and invariant 2 (no silent loss) at the
// quiescence a healed suffix reaches from every state. A violation
// prints the inputs that led to it, which xRun runs again.

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/tps-p2p/tps/internal/israce"
	"github.com/tps-p2p/tps/internal/jxta/jid"
)

// The budgets bound the inputs of each kind one trace takes. One of
// each reaches a frame lost inside its epoch, and a restarted numbering
// followed by the cursor; two epochs or two appends take the search
// from seconds past minutes.
const (
	xAppends  = 1
	xTrims    = 1
	xResets   = 1
	xEpochs   = 1
	xRestarts = 1
	xDrops    = 1
	// xRetain is the most records the log retains.
	xRetain = 6
	// xW is the window the subscriber asks for: two records, so that a
	// log of a few takes more than one.
	xW = 2
)

// The server's log is the origin O. The subscriber also holds a cursor
// for F, a dead primary whose stream it caught up on before it failed
// over: under active/standby its rounds carry F's cursor to O too,
// which is in F's replica set, holds nothing of F, and has synced.
var xOrigins = [2]jid.ID{o1, o2}

var xOriginNames = [2]string{"O", "F"}

// Frame kinds, and the bits of xWorld.lost. Frames in flight sort by
// kind first, so the healed suffix delivers a server's range signal
// before the replay it sent after it.
const (
	xReq uint8 = 1 << iota
	xRange
	xLive
	xReplay
)

var xKindNames = map[uint8]string{xLive: "live", xReq: "req", xReplay: "replay", xRange: "range"}

// xFrame is a frame in flight: a live or a replayed event (seq), a
// request (origin, seq is its cursor and last the window it asks for)
// or a range signal (origin, first..last, seq 1 for a gap). inc is the
// log's incarnation when it was sent, which the subscriber cannot see.
// Every field fits a byte of its id.
type xFrame struct {
	kind, origin, inc, seq, first, last uint8
}

func (f xFrame) id() uint64 {
	return uint64(f.kind)<<40 | uint64(f.origin)<<32 | uint64(f.inc)<<24 | uint64(f.seq)<<16 | uint64(f.first)<<8 | uint64(f.last)
}

func xFrameOf(id uint64) xFrame {
	return xFrame{uint8(id >> 40), uint8(id >> 32), uint8(id >> 24), uint8(id >> 16), uint8(id >> 8), uint8(id)}
}

// String names the frame; a prime marks the restarted numbering.
func (f xFrame) String() string {
	primes := strings.Repeat("'", int(f.inc))
	switch f.kind {
	case xReq:
		return fmt.Sprintf("req %s after %d", xOriginNames[f.origin], f.seq)
	case xRange:
		kind := "range"
		if f.seq != 0 {
			kind = "gap"
		}
		return fmt.Sprintf("%s %s %d..%d%s", kind, xOriginNames[f.origin], f.first, f.last, primes)
	}
	return fmt.Sprintf("%s %d%s", xKindNames[f.kind], f.seq, primes)
}

// xEvent is one input of the explorer. A frame is named by its String,
// or, in the explorer's own events, by its id plus one.
type xEvent struct {
	kind  string // append trim reset epoch round kick refused nolease restart deliver drop dup
	frame string
	fid   uint64
}

// String is the event as a Go literal, for a test to replay.
func (e xEvent) String() string {
	if e.fid != 0 {
		e.frame = xFrameOf(e.fid - 1).String()
	}
	if e.frame != "" {
		return fmt.Sprintf("{kind: %q, frame: %q}", e.kind, e.frame)
	}
	return fmt.Sprintf("{kind: %q}", e.kind)
}

// xWorld is one state: the log, the subscriber's core and lease, the
// frames in flight, what is left of the budgets, and the ghost state the
// checks read — what the explorer saw, kept apart from what the core
// keeps.
type xWorld struct {
	inc         uint8  // the log's incarnation: a reset restarts its numbering
	first, last uint64 // retained, 0..0 when empty
	leased      bool
	sub         *Subscriber
	frames      []uint64 // the ids of the frames in flight, sorted

	appends, trims, resets, epochs, restarts, drops, dups, asks int

	// got has a bit per sequence of each incarnation delivered to the
	// subscriber since its start; named one per incarnation, below which
	// an answer the subscriber reported as a loss declared the log's
	// records gone.
	got, named [xResets + 1]uint64
	// pos has a bit per sequence received from each origin, whatever
	// its incarnation; gone is the lowest a range signal for it left
	// undeclared.
	pos, gone [2]uint64
	// stale is the sequences of the restarted numbering under the cursor
	// the subscriber kept from the old one, or that frames of the old one
	// moved it to after the restart.
	stale uint64
	// lost has the bits of the kinds of frame dropped since the
	// subscriber started, lostLive a bit per sequence of a live frame
	// dropped.
	lost     uint8
	lostLive uint64

	trace  *xStep
	bad    string
	pruned bool // the rounds outran their budget: not a state the search reaches
}

// xStep is a trace, newest input first.
type xStep struct {
	prev *xStep
	ev   xEvent
}

func (s *xStep) events() []xEvent {
	var out []xEvent
	for ; s != nil; s = s.prev {
		out = append(out, s.ev)
	}
	slices.Reverse(out)
	return out
}

// xBudget is what one search may spend on the two inputs that multiply
// the frames in flight the most: duplicating a frame, and a request the
// rounds send — a stalled window is asked for again every other tick, so
// rounds alone would fill the network without end. A search that may
// spend one of each takes past a minute; TestRecoveryExplorer runs one
// that duplicates and rounds that send the epoch's requests alone, and
// one whose rounds may also ask for the next window or again.
type xBudget struct{ dups, asks int }

// xSubscriber is a new subscriber process: active/standby, asking for
// xW records at a time.
func xSubscriber() *Subscriber {
	s := NewSubscriber(true)
	s.w = xW
	return s
}

// xStart is the state every trace starts from: the subscriber, leased
// with nobody, received 1 of O's and 1 of F's, and O's log has trimmed
// 1 and retains 2..3.
func xStart(b xBudget) *xWorld {
	w := &xWorld{first: 2, last: 3, sub: xSubscriber(),
		appends: xAppends, trims: xTrims, resets: xResets, epochs: xEpochs, restarts: xRestarts, drops: xDrops, dups: b.dups, asks: b.asks}
	w.sub.Delivered(o1, 1)
	w.sub.Delivered(o2, 1)
	w.got[0], w.pos[0], w.pos[1] = 1<<1, 1<<1, 1<<1
	return w
}

func (w *xWorld) clone() *xWorld {
	c := *w
	c.frames = slices.Clone(w.frames)
	c.sub = &Subscriber{standby: w.sub.standby, w: w.sub.w, cursors: make(map[jid.ID]*cursor, 2), pulls: make(map[stream]*pull, 2)}
	for o, cur := range w.sub.cursors {
		cp := *cur
		c.sub.cursors[o] = &cp
	}
	for k, p := range w.sub.pulls {
		cp := *p
		c.sub.pulls[k] = &cp
	}
	return &c
}

func (w *xWorld) send(f xFrame) {
	id := f.id()
	i, _ := slices.BinarySearch(w.frames, id)
	w.frames = slices.Insert(w.frames, i, id)
}

// take removes the frame ev names from flight.
func (w *xWorld) take(ev xEvent) (xFrame, bool) {
	i := slices.IndexFunc(w.frames, func(id uint64) bool { return id == ev.fid-1 || xFrameOf(id).String() == ev.frame })
	if i < 0 {
		return xFrame{}, false
	}
	f := xFrameOf(w.frames[i])
	w.frames = slices.Delete(w.frames, i, i+1)
	return f, true
}

// events lists the inputs enabled in w, in a fixed order.
func (w *xWorld) events() []xEvent {
	var evs []xEvent
	add := func(ok bool, kind string) {
		if ok {
			evs = append(evs, xEvent{kind: kind})
		}
	}
	add(w.appends > 0 && (w.last == 0 || w.last-w.first+1 < xRetain), "append")
	add(w.trims > 0 && w.last > w.first, "trim")
	add(w.resets > 0, "reset")
	add(w.epochs > 0, "epoch")
	owed := w.sub.Owed() > 0
	add(w.leased, "round")
	add(w.leased, "kick")
	add(owed && w.leased, "refused")
	add(owed || len(w.sub.pulls) > 0, "nolease")
	add(w.restarts > 0, "restart")
	for i, id := range w.frames {
		if i > 0 && w.frames[i-1] == id {
			continue
		}
		evs = append(evs, xEvent{kind: "deliver", fid: id + 1})
		if w.drops > 0 {
			evs = append(evs, xEvent{kind: "drop", fid: id + 1})
		}
		if w.dups > 0 {
			evs = append(evs, xEvent{kind: "dup", fid: id + 1})
		}
	}
	return evs
}

// apply runs one input, then checks invariant 3. A world that broke it
// takes no more inputs.
func (w *xWorld) apply(ev xEvent) {
	w.trace = &xStep{prev: w.trace, ev: ev}
	var before [2]uint64
	for o := range xOrigins {
		before[o] = w.sub.Mark(xOrigins[o])
	}
	var gap *xFrame
	switch ev.kind {
	case "append":
		w.appends--
		if w.last == 0 {
			w.first = 1
		}
		w.last++
		if w.leased {
			w.send(xFrame{kind: xLive, inc: w.inc, seq: uint8(w.last)})
		}
	case "trim":
		w.trims--
		w.first++
	case "reset":
		// The rendezvous restarted on a lost log: its leases lapsed.
		w.resets--
		w.inc++
		w.first, w.last, w.leased = 0, 0, false
		w.stale = w.sub.Mark(o1)
	case "epoch":
		w.epochs--
		w.leased = true
		w.sub.Epoch(o1)
	case "round", "kick", "refused", "nolease":
		// A refused round's requests never leave; nor do those of one
		// that finds the lease gone.
		for _, q := range w.sub.Round(nil, ev.kind != "kick") {
			if ev.kind == "round" || ev.kind == "kick" {
				w.asks--
				w.send(xFrame{kind: xReq, origin: uint8(slices.Index(xOrigins[:], q.Origin)), seq: uint8(q.After), last: uint8(q.Max)})
			}
		}
		w.pruned = w.asks < 0
		if ev.kind == "nolease" {
			w.leased = false
		}
	case "restart":
		// A new process: no cursor, no lease, nothing received yet.
		w.restarts--
		w.sub = xSubscriber()
		w.leased = false
		w.got, w.named, w.pos, w.gone, w.stale, w.lost, w.lostLive = [xResets + 1]uint64{}, [xResets + 1]uint64{}, [2]uint64{}, [2]uint64{}, 0, 0, 0
		before = [2]uint64{}
	case "deliver", "drop", "dup":
		f, ok := w.take(ev)
		if !ok {
			w.bad = fmt.Sprintf("no frame %s in flight: %v", ev, w.inFlight())
			return
		}
		switch ev.kind {
		case "drop":
			w.drops--
			w.lost |= f.kind
			if f.kind == xLive {
				w.lostLive |= 1 << f.seq
			}
		case "dup":
			w.dups--
			w.send(f)
			w.send(f)
		default:
			if f.kind == xRange && f.seq != 0 {
				gap = &f
			}
			w.deliver(f)
			if f.inc < w.inc {
				// A frame of the old numbering moves the cursor as one of
				// the new would.
				w.stale = max(w.stale, w.sub.Mark(o1))
			}
		}
	default:
		panic(ev.kind)
	}
	w.stale = min(w.stale, w.sub.Mark(o1))
	w.check(before, gap)
}

// deliver hands f to the subscriber, or to the server.
func (w *xWorld) deliver(f xFrame) {
	switch f.kind {
	case xLive, xReplay:
		w.sub.Delivered(o1, uint64(f.seq))
		w.got[f.inc] |= 1 << f.seq
		w.pos[0] |= 1 << f.seq
	case xRange:
		first := uint64(f.first)
		lost := w.sub.Answer(o1, xOrigins[f.origin], first, uint64(f.last), f.seq != 0)
		if first > 0 {
			w.gone[f.origin] = max(w.gone[f.origin], first)
			if f.origin == 0 && lost {
				w.named[f.inc] = max(w.named[f.inc], first)
			}
		}
	case xReq:
		st := Stream{Self: f.origin == 0, Replicates: true, Synced: true}
		if st.Self && w.last > 0 {
			st.Held, st.First, st.Last = true, w.first, w.last
		}
		v := Serve(uint64(f.seq), uint64(f.last), st)
		gap := uint8(0)
		if v.Gap {
			gap = 1
		}
		w.send(xFrame{kind: xRange, origin: f.origin, inc: w.inc, seq: gap, first: uint8(v.First), last: uint8(v.Last)})
		for seq, n := max(v.From+1, w.first), uint64(0); v.Serve && seq <= w.last && n < v.Max; seq, n = seq+1, n+1 {
			w.send(xFrame{kind: xReplay, inc: w.inc, seq: uint8(seq)})
		}
	}
}

func (w *xWorld) inFlight() (names []string) {
	for _, id := range w.frames {
		names = append(names, xFrameOf(id).String())
	}
	return names
}

// check is invariant 3: a cursor is the highest contiguous sequence
// received from one origin. It never passes a sequence that was neither
// received nor declared gone by a range signal for that origin, and it
// moves back only when a gap says the origin's log ends below it.
func (w *xWorld) check(before [2]uint64, gap *xFrame) {
	for o, origin := range xOrigins {
		mark := w.sub.Mark(origin)
		if mark < before[o] && (gap == nil || int(gap.origin) != o || gap.first == 0 || uint64(gap.last) >= before[o]) {
			w.bad = fmt.Sprintf("invariant 3: %s's cursor moved back from %d to %d", xOriginNames[o], before[o], mark)
			return
		}
		if mark >= 64 {
			w.bad = fmt.Sprintf("invariant 3: %s's cursor at %d passes sequences never numbered", xOriginNames[o], mark)
			return
		}
		for seq := uint64(1); seq <= mark; seq++ {
			if w.pos[o]&(1<<seq) == 0 && seq >= w.gone[o] {
				w.bad = fmt.Sprintf("invariant 3: %s's cursor at %d passes %d, neither received nor declared gone", xOriginNames[o], mark, seq)
				return
			}
		}
	}
}

// heal runs the healed suffix from w — every frame in flight delivered,
// in order, ticks run until two in a row send nothing, and a new lease
// only for a subscriber that has none — to quiescence, and checks
// invariant 2 there: every sequence the log retains was delivered or
// lies below a gap the subscriber was told of. It returns the healed
// world, and the violation and the name of its kind.
func (w *xWorld) heal() (c *xWorld, msg, kind string) {
	c = w.clone()
	c.asks = 1 << 30
	if !c.leased {
		c.epochs++
		c.apply(xEvent{kind: "epoch"})
	}
	for quiet, steps := 0, 0; c.bad == ""; steps++ {
		switch {
		case steps > 200:
			return c, fmt.Sprintf("the healed suffix still asks after %d steps: %v", steps, c.inFlight()), "no quiescence"
		case len(c.frames) > 0:
			c.apply(xEvent{kind: "deliver", fid: c.frames[0] + 1})
			quiet = 0
		case quiet < 2:
			c.apply(xEvent{kind: "round"})
			if len(c.frames) == 0 {
				quiet++
			}
		default:
			for seq := max(c.first, 1); seq <= c.last; seq++ {
				if c.got[c.inc]&(1<<seq) != 0 || seq < c.named[c.inc] {
					continue
				}
				msg = fmt.Sprintf("invariant 2: %d%s is retained, and was neither delivered nor named by a gap", seq, strings.Repeat("'", int(c.inc)))
				switch {
				case c.inc > 0 && seq <= c.stale:
					return c, msg, "the restarted numbering passed the cursor before it asked"
				case seq == c.last && c.lostLive&(1<<seq) != 0 && !c.told(seq):
					return c, msg, "the newest live frame was lost, and nothing after it tells"
				}
				return c, msg, "silent loss"
			}
			return c, "", ""
		}
	}
	return c, c.bad + " (in the healed suffix)", "invariant 3"
}

// told reports whether the subscriber knows of O's seq: it received a
// later sequence, or an answer of O said it retains seq.
func (w *xWorld) told(seq uint64) bool {
	if c := w.sub.cursors[o1]; c != nil && c.top >= seq {
		return true
	}
	p := w.sub.pulls[stream{o1, o1}]
	return p != nil && p.end >= seq
}

// key is the state's identity: the log, the lease, the core, the
// network, the budgets and the ghost state, hashed (FNV-1a).
func (w *xWorld) key() uint64 {
	h := uint64(14695981039346656037)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ (x & 0xff)) * 1099511628211
			x >>= 8
		}
	}
	leased := uint64(0)
	if w.leased {
		leased = 1
	}
	mix(uint64(w.inc) | w.first<<8 | w.last<<16 | uint64(w.sub.Owed())<<24 | uint64(w.lost)<<32 | w.stale<<40 | leased<<48)
	mix(uint64(w.appends) | uint64(w.trims)<<8 | uint64(w.resets)<<16 | uint64(w.epochs)<<24 |
		uint64(w.restarts)<<32 | uint64(w.drops)<<40 | uint64(w.dups)<<48)
	mix(uint64(w.asks) | w.lostLive<<8)
	for _, origin := range xOrigins {
		c := w.sub.cursors[origin]
		if c == nil {
			mix(1 << 63)
		} else {
			var window uint64
			for i := uint64(1); i <= 16; i++ {
				if wd, m := c.bit(c.mark + i); *wd&m != 0 {
					window |= 1 << (i - 1)
				}
			}
			mix(c.mark | window<<16 | c.top<<32 | c.low<<48)
		}
		p := w.sub.pulls[stream{o1, origin}]
		if p == nil {
			mix(1 << 63)
			continue
		}
		flags := uint64(0)
		for i, b := range []bool{p.owed, p.answered, p.prev == ^uint64(0)} {
			if b {
				flags |= 1 << i
			}
		}
		mix(flags | p.asked<<8 | p.end<<24 | p.prev<<40)
	}
	for _, v := range [][]uint64{w.got[:], w.named[:], w.pos[:], w.gone[:]} {
		for _, x := range v {
			mix(x)
		}
	}
	for _, id := range w.frames {
		mix(id)
	}
	return h
}

type xViolation struct {
	msg   string
	trace []xEvent
}

// explore runs a breadth-first search from xStart and returns the
// number of distinct states and the shortest trace to each kind of
// violation found.
func explore(b xBudget) (states int, found map[string]xViolation) {
	found = map[string]xViolation{}
	record := func(kind, msg string, trace *xStep) {
		if _, ok := found[kind]; !ok {
			found[kind] = xViolation{msg, trace.events()}
		}
	}
	start := xStart(b)
	seen := map[uint64]bool{start.key(): true}
	for queue := []*xWorld{start}; len(queue) > 0; queue = queue[1:] {
		w := queue[0]
		if _, msg, kind := w.heal(); msg != "" {
			record(kind, msg, w.trace)
		}
		for _, ev := range w.events() {
			c := w.clone()
			c.apply(ev)
			if c.pruned {
				continue
			}
			if c.bad != "" {
				record("invariant 3", c.bad, c.trace)
				continue
			}
			if k := c.key(); !seen[k] {
				seen[k] = true
				queue = append(queue, c)
			}
		}
	}
	return len(seen), found
}

// xRun applies trace from xStart.
func xRun(trace []xEvent) *xWorld {
	w := xStart(xBudget{dups: 1, asks: 1 << 30})
	for _, ev := range trace {
		if w.bad != "" {
			break
		}
		w.apply(ev)
	}
	return w
}

func xTrace(trace []xEvent) string {
	var b strings.Builder
	for _, ev := range trace {
		fmt.Fprintf(&b, "\t%s,\n", ev)
	}
	return b.String()
}

// TestRecoveryExplorer enumerates every state the budgets reach. No
// cursor may break invariant 3, every healed suffix must fall quiet, and
// a frame lost on the way — a request, a range signal, a replayed or a
// live event — must be asked for again. Two holes are known, and their
// shortest traces printed: the newest live event lost with nothing
// after it, which no frame the subscriber receives reveals until the
// next event or lease does, and a log that restarted its numbering and
// passed the subscriber's old cursor before the subscriber asked, which
// a sequence number cannot tell apart from the old numbering.
func TestRecoveryExplorer(t *testing.T) {
	if israce.Enabled {
		t.Skip("deterministic and slow under the race detector")
	}
	for _, b := range []xBudget{{dups: 1, asks: 1}, {dups: 0, asks: 2}} {
		start := time.Now()
		states, found := explore(b)
		t.Logf("%+v: %d distinct states in %v", b, states, time.Since(start).Round(time.Millisecond))
		for _, kind := range slices.Sorted(maps.Keys(found)) {
			v := found[kind]
			if strings.HasPrefix(kind, "the newest live") || strings.HasPrefix(kind, "the restarted") {
				t.Logf("known hole, %s: %s\nafter %d inputs:\n%s", kind, v.msg, len(v.trace), xTrace(v.trace))
				continue
			}
			t.Errorf("%+v: %s\nafter %d inputs:\n%s", b, v.msg, len(v.trace), xTrace(v.trace))
		}
		if _, ok := found["the newest live frame was lost, and nothing after it tells"]; !ok {
			t.Errorf("%+v: the explorer did not reach a lost frame it cannot recover: it is not losing frames", b)
		}
	}
}

// TestRecoveryTraces replays traces the explorer printed, and pins what
// the rules do at their end.
func TestRecoveryTraces(t *testing.T) {
	if israce.Enabled {
		t.Skip("deterministic and slow under the race detector")
	}
	for _, tc := range []struct {
		name  string
		trace []xEvent
		// kind is the violation the healed suffix ends in, "" for none;
		// mark is O's cursor then, and gaps the gaps that named O's log.
		kind string
		mark uint64
	}{{
		// The first replayed frame of the epoch is lost. The cursor parks
		// at 1 below the hole, behind the 3 the answer said is retained:
		// the second tick that finds it there asks after 1 again, 2
		// arrives and the cursor reaches 3.
		name: "a replayed frame lost inside its epoch",
		trace: []xEvent{
			{kind: "epoch"},
			{kind: "round"},
			{kind: "deliver", frame: "req O after 1"},
			{kind: "drop", frame: "replay 2"},
		},
		mark: 3,
	}, {
		// The log restarted empty under a cursor at 3 and took one
		// event. The first request of the next lease gets a gap bounding
		// 1'..1' and the replay of all of it: the cursor follows the new
		// numbering down to 0, then up to 1', where the next request
		// asks from. A cursor left at 3 would have every lease gap and
		// replay the whole log again until the log passed 3.
		name: "a restarted numbering under the cursor",
		trace: []xEvent{
			{kind: "epoch"},
			{kind: "round"},
			{kind: "deliver", frame: "req O after 1"},
			{kind: "deliver", frame: "replay 2"},
			{kind: "deliver", frame: "replay 3"},
			{kind: "reset"},
			{kind: "append"},
		},
		mark: 1,
	}, {
		// The log restarted empty under a cursor at 1 and took one event
		// before the subscriber asked: 1' is under the old cursor, and
		// no sequence tells it from the old 1.
		name: "a restarted numbering that passed the cursor",
		trace: []xEvent{
			{kind: "reset"},
			{kind: "append"},
		},
		kind: "the restarted numbering passed the cursor before it asked", mark: 1,
	}} {
		t.Run(tc.name, func(t *testing.T) {
			w := xRun(tc.trace)
			if w.bad != "" {
				t.Fatal(w.bad)
			}
			healed, msg, kind := w.heal()
			if kind != tc.kind {
				t.Fatalf("the healed suffix ends in %q (%s), want %q", kind, msg, tc.kind)
			}
			if mark := healed.sub.Mark(o1); mark != tc.mark {
				t.Fatalf("O's cursor at %d after the healed suffix, want %d", mark, tc.mark)
			}
		})
	}
}
