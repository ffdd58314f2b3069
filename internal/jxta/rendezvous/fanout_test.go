package rendezvous

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tps-p2p/tps/internal/israce"
	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/message"
)

// fanRig is a rendezvous on a clock of its own, behind a transport that
// counts the propagated frames sent to each address and fails every
// send to the addresses in fail.
type fanRig struct {
	s     *Service
	clock atomic.Int64 // unix nanoseconds
	fail  map[endpoint.Address]bool

	mu   sync.Mutex
	sent map[endpoint.Address]int
	// onSend, when set, is told of each propagated frame sent, on the
	// sending goroutine.
	onSend func(to endpoint.Address)
}

func (r *fanRig) Scheme() string                 { return "hand" }
func (r *fanRig) LocalAddress() endpoint.Address { return "hand://rdv" }
func (r *fanRig) SetReceiver(func(frame []byte)) {}
func (r *fanRig) Close() error                   { return nil }

func (r *fanRig) now() time.Time          { return time.Unix(0, r.clock.Load()) }
func (r *fanRig) advance(d time.Duration) { r.clock.Add(int64(d)) }
func (r *fanRig) apply(in input)          { r.s.apply(r.now(), in) }
func (r *fanRig) forward(v *message.View) { r.s.forward(v, "g") }

// count is how many propagated frames were sent to to.
func (r *fanRig) count(to endpoint.Address) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sent[to]
}

var errFanDown = errors.New("unreachable")

func (r *fanRig) Send(to endpoint.Address, frame []byte) error {
	if v, err := message.NewView(frame); err == nil && v.Text(elemNS, elemOp) == opProp {
		r.mu.Lock()
		r.sent[to]++
		r.mu.Unlock()
		if r.onSend != nil {
			r.onSend(to)
		}
	}
	if r.fail[to] {
		return errFanDown
	}
	return nil
}

var (
	fanClients = []jid.ID{jid.FromSeed(jid.KindPeer, 11), jid.FromSeed(jid.KindPeer, 12), jid.FromSeed(jid.KindPeer, 13), jid.FromSeed(jid.KindPeer, 14)}
	fanAddrs   = []endpoint.Address{"hand://a", "hand://b", "hand://c", "hand://d"}
)

const fanTTL = time.Minute

func newFanRig(t *testing.T, fail ...endpoint.Address) *fanRig {
	t.Helper()
	r := &fanRig{fail: map[endpoint.Address]bool{}, sent: map[endpoint.Address]int{}}
	for _, a := range fail {
		r.fail[a] = true
	}
	r.clock.Store(time.Unix(1_000_000, 0).UnixNano())
	ep := endpoint.New(jid.FromSeed(jid.KindPeer, 1))
	if err := ep.AddTransport(r); err != nil {
		t.Fatal(err)
	}
	s, err := New(ep, Config{Role: RoleRendezvous, LeaseTTL: fanTTL, Clock: r.now})
	if err != nil {
		t.Fatal(err)
	}
	r.s = s
	t.Cleanup(func() {
		s.Close()
		_ = ep.Close()
	})
	return r
}

// connect is client i's connect for group "g": a new lease, or its
// renewal.
func (r *fanRig) connect(i int) {
	r.apply(input{kind: inConnect, from: fanAddrs[i], src: fanClients[i], groups: []string{"g"}, seed: 1})
}

// fanFrame is a view of a frame of group "g" that a publisher, not one
// of the clients, propagated: every client is a target of it.
func fanFrame(t *testing.T) *message.View {
	t.Helper()
	pub := jid.FromSeed(jid.KindPeer, 2)
	m := message.New(pub)
	m.ID = jid.NumberedMessage(jid.NewStream(), 1)
	m.Stamp(pub)
	m.AddString(elemNS, elemOp, opProp)
	m.AddString(elemNS, elemDSvc, "app")
	m.AddString(elemNS, elemDParam, "g")
	frame, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	v, err := message.NewView(frame)
	if err != nil {
		t.Fatal(err)
	}
	return &v
}

// TestFanOutTakesNoControlLock: a hop whose sends all arrive reads its
// targets and settles its sends without the control core's lock, so it
// forwards a frame to every client while another goroutine holds s.mu.
// The parent took the lock twice a frame, to copy the targets and to
// step the core on each arrival, and waited here until it was let go.
func TestFanOutTakesNoControlLock(t *testing.T) {
	r := newFanRig(t)
	// The maintenance loop's first tick is a step, which would mark the
	// targets stale behind the test's back: it waits for order.
	r.s.order.Lock()
	defer r.s.order.Unlock()
	for i := range fanClients {
		r.connect(i)
	}
	v := fanFrame(t)
	r.forward(v) // publishes the targets the connects marked stale
	r.s.mu.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range 10 {
			r.forward(v)
		}
	}()
	select {
	case <-done:
		r.s.mu.Unlock()
	case <-time.After(10 * time.Second):
		r.s.mu.Unlock()
		<-done
		t.Fatal("a fan-out whose sends arrived waited for the control core's lock")
	}
	for _, addr := range fanAddrs {
		if n := r.count(addr); n != 11 {
			t.Errorf("%s was sent %d frames, want 11", addr, n)
		}
	}
}

// fanModel is what the test knows of one client's lease: whether the
// core holds one and until when, as the last step about the client left
// it, and how often such a step began or finished — odd while one runs.
type fanModel struct {
	leased  bool
	expires time.Time
	edges   int
}

// TestForwardNeverSendsToALapsedTarget runs a stream of forward calls
// against the steps that move its targets — renewals, a lease left to
// lapse, a client evicted by its failed sends, a leave and a rejoin —
// on another goroutine, under the race detector in CI's race run. No
// frame goes to a client whose lease had lapsed or was gone before the
// forward began, unless a step about the client ran while the forward
// did: a forward reads the targets as the last step left them, never
// older ones.
func TestForwardNeverSendsToALapsedTarget(t *testing.T) {
	r := newFanRig(t, fanAddrs[2]) // client 2's sends all fail
	var mu sync.Mutex
	model := make([]fanModel, len(fanClients))
	snapshot := func() []fanModel {
		mu.Lock()
		defer mu.Unlock()
		return append([]fanModel(nil), model...)
	}
	// edge counts a step about client i beginning or, with the lease it
	// leaves, finishing.
	edge := func(i int, done func(m *fanModel)) {
		mu.Lock()
		defer mu.Unlock()
		model[i].edges++
		if done != nil {
			done(&model[i])
		}
	}
	step := func(i int, in input, leased bool) {
		edge(i, nil)
		r.apply(in)
		edge(i, func(m *fanModel) { m.leased, m.expires = leased, r.now().Add(fanTTL) })
	}
	connect := func(i int) {
		step(i, input{kind: inConnect, from: fanAddrs[i], src: fanClients[i], groups: []string{"g"}, seed: 1}, true)
	}
	index := map[endpoint.Address]int{}
	for i, a := range fanAddrs {
		index[a] = i
	}
	var sent []int // the clients the current forward sent to
	r.onSend = func(to endpoint.Address) { sent = append(sent, index[to]) }
	v := fanFrame(t)

	const rounds = 400
	stepped := make(chan struct{})
	go func() {
		defer close(stepped)
		for i := range rounds {
			r.advance(fanTTL / 4)
			connect(0) // renewed every round
			if i%8 == 0 {
				connect(1) // renewed every eighth round: lapsed half the time
			}
			if i%6 == 0 {
				connect(2) // back after its eviction
			}
			if i%2 == 0 { // in the group every other round
				connect(3)
			} else {
				step(3, input{kind: inDisconnect, from: fanAddrs[3], src: fanClients[3]}, false)
			}
			if i%4 == 0 {
				r.apply(input{kind: inTick})
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()
	var forwards, lapsed, evictions int
	for running := true; running; {
		select {
		case <-stepped:
			running = false
		default:
		}
		before, t0 := snapshot(), r.now()
		sent = sent[:0]
		r.forward(v)
		after := snapshot()
		forwards++
		// Client i's lease as before says, for the whole forward.
		settled := func(i int) bool { return before[i].edges%2 == 0 && before[i].edges == after[i].edges }
		for _, i := range sent {
			if b := before[i]; (!b.leased || b.expires.Before(t0)) && settled(i) {
				t.Fatalf("forward %d sent to %s, whose lease had lapsed or was gone before it began (leased %v, expires %v, now %v)",
					forwards, fanAddrs[i], b.leased, b.expires.Sub(t0), t0.Sub(time.Unix(1_000_000, 0)))
			}
		}
		if before[1].expires.Before(t0) && settled(1) {
			lapsed++
		}
		// An eviction is a step of the forward's own; the model hears
		// of it here, unless a step about the client is running.
		mu.Lock()
		r.s.mu.Lock()
		_, held := r.s.c.clients[fanClients[2]]
		r.s.mu.Unlock()
		if m := &model[2]; m.leased && m.edges%2 == 0 && !held {
			m.leased = false
			m.edges += 2
			evictions++
		}
		mu.Unlock()
	}
	if lapsed == 0 || evictions == 0 {
		t.Fatalf("%d forwards met no lapsed lease (%d) or no eviction (%d)", forwards, lapsed, evictions)
	}
	for _, addr := range fanAddrs {
		if r.count(addr) == 0 {
			t.Errorf("%s was never sent a frame", addr)
		}
	}
	if !israce.Enabled {
		t.Logf("%d forwards, %d with client 1 lapsed, %d evictions", forwards, lapsed, evictions)
	}
}
