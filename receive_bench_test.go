package tps_test

// receive_bench_test.go replays the receive path on one goroutine: real
// platforms — engine, rendezvous service, endpoint — on the simulated
// WAN, each behind a transport whose receiver the benchmark calls
// itself, fed frames the real publish path wrote. A CPU claim about the
// hops sized here resolves in-process, where the end-to-end pairs of
// bench/ may not.

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	tps "github.com/tps-p2p/tps"
	"github.com/tps-p2p/tps/internal/israce"
	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/jxta/message"
	"github.com/tps-p2p/tps/internal/jxta/transport/memnet"
	"github.com/tps-p2p/tps/internal/netsim"
	"github.com/tps-p2p/tps/internal/srapp"
)

// What a benchLink does with a frame it is given to send.
const (
	linkLive    = iota // sends it on the fabric
	linkCapture        // keeps a private copy of an event frame, sends nothing
	linkDrop           // sends nothing: a null transport
)

// benchLink is a node's transport on the simulated WAN whose sends can be
// captured or dropped instead, and whose receiver a benchmark calls.
type benchLink struct {
	tps.Transport
	receive func(frame []byte)
	mode    atomic.Int32

	mu     sync.Mutex
	frames [][]byte // captured, in send order
}

func (l *benchLink) SetReceiver(receive func(frame []byte)) {
	l.receive = receive
	l.Transport.SetReceiver(receive)
}

func (l *benchLink) Send(to endpoint.Address, frame []byte) error {
	switch l.mode.Load() {
	case linkDrop:
		return nil
	case linkCapture:
		// The frame is the sender's to recycle: keep a copy, and only an
		// event's — whatever else a run sends (none is due with hour-long
		// leases) is dropped.
		own := bytes.Clone(frame)
		if m, err := message.Unmarshal(own); err == nil {
			if _, ok := m.Element("tps", "Data"); ok {
				l.mu.Lock()
				l.frames = append(l.frames, own)
				l.mu.Unlock()
			}
		}
		return nil
	}
	return l.Transport.Send(to, frame)
}

// take returns the frames captured so far and forgets them.
func (l *benchLink) take() [][]byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.frames
	l.frames = nil
	return out
}

// receiveStack is a rendezvous, subs edges subscribed to SkiRental
// through it and a publisher, every lease held for an hour, so that no
// renewal lands in a run. A rendezvous given a log directory is durable:
// it logs every frame it forwards.
type receiveStack struct {
	rdv, pub  *benchLink
	rdvStats  func() tps.StatsView
	subs      []*benchLink
	publish   func(n int)
	delivered atomic.Int64 // callbacks run, on every subscriber
}

func newReceiveStack(b testing.TB, subs, pad int, logDir string) *receiveStack {
	b.Helper()
	wan := netsim.New(netsim.Config{})
	b.Cleanup(wan.Close)
	start := func(cfg tps.Config) (*tps.Platform, *benchLink) {
		node, err := wan.AddNode(cfg.Name)
		if err != nil {
			b.Fatal(err)
		}
		l := &benchLink{Transport: memnet.New(node)}
		cfg.LeaseTTL = time.Hour
		p, err := tps.NewPlatform(cfg, tps.WithTransport(l))
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(p.Close)
		return p, l
	}
	engine := func(p *tps.Platform) (*tps.Engine[srapp.SkiRental], *tps.Interface[srapp.SkiRental]) {
		eng, err := tps.NewEngine[srapp.SkiRental](p)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(eng.Close)
		intf, err := eng.NewInterface(nil)
		if err != nil {
			b.Fatal(err)
		}
		return eng, intf
	}
	st := &receiveStack{}
	rdv, l := start(tps.Config{Name: "rdv", Rendezvous: true, LogDir: logDir})
	st.rdv, st.rdvStats = l, rdv.Stats
	seeds := []string{"mem://rdv"}
	count := tps.CallBackFunc[srapp.SkiRental](func(srapp.SkiRental) error {
		st.delivered.Add(1)
		return nil
	})
	for i := range subs {
		p, l := start(tps.Config{Name: fmt.Sprintf("sub%d", i), Seeds: seeds})
		eng, intf := engine(p)
		if err := intf.Subscribe(count, nil); err != nil {
			b.Fatal(err)
		}
		if !eng.AwaitReady(1, 10*time.Second) {
			b.Fatalf("sub%d never leased its group", i)
		}
		st.subs = append(st.subs, l)
	}
	p, l := start(tps.Config{Name: "pub", Seeds: seeds})
	eng, intf := engine(p)
	if !eng.AwaitReady(1, 10*time.Second) {
		b.Fatal("the publisher never leased its group")
	}
	st.pub = l
	// The leases granted, what follows them — replay requests and their
	// answers — has 50 ms to land before anything is measured.
	for last := int64(-1); ; time.Sleep(50 * time.Millisecond) {
		v := st.rdvStats()
		moved := v.Counter("endpoint", "msgs_in") + v.Counter("endpoint", "msgs_out")
		if moved == last {
			break
		}
		last = moved
	}
	offer := srapp.Pad(srapp.SkiRental{Shop: "XTremShop", Brand: "Salomon", Price: 14, NumberOfDays: 100}, pad)
	st.publish = func(n int) {
		for range n {
			if err := intf.Publish(offer); err != nil {
				b.Fatal(err)
			}
		}
	}
	return st
}

// published publishes n events, each a fresh message ID, and returns the
// frames the publisher sent the rendezvous for them.
func (st *receiveStack) published(b testing.TB, n int) [][]byte {
	st.pub.mode.Store(linkCapture)
	defer st.pub.mode.Store(linkLive)
	st.publish(n)
	frames := st.pub.take()
	if len(frames) != n {
		b.Fatalf("%d publishes sent %d event frames", n, len(frames))
	}
	return frames
}

// fannedOut publishes n events and has the rendezvous, whose sends the
// caller captures, fan each out: it returns the frames it sent the one
// subscriber, the frames an edge receives.
func (st *receiveStack) fannedOut(tb testing.TB, n int) [][]byte {
	for _, f := range st.published(tb, n) {
		st.rdv.receive(f)
	}
	frames := st.rdv.take()
	if len(frames) != n {
		tb.Fatalf("the rendezvous fanned %d frames out as %d", n, len(frames))
	}
	return frames
}

// receiveBatch is how many frames are built, outside the timer, between
// timed stretches.
const receiveBatch = 256

// runReceive hands receive b.N frames nobody has touched, from batch
// (which builds at most n), and reports the cost per delivery: a frame
// is perFrame deliveries.
func runReceive(b *testing.B, receive func([]byte), batch func(n int) [][]byte, perFrame int) {
	var before, after runtime.MemStats
	var mallocs, allocated uint64
	b.ResetTimer()
	b.StopTimer()
	for done := 0; done < b.N; {
		frames := batch(min(receiveBatch, b.N-done))
		runtime.ReadMemStats(&before)
		b.StartTimer()
		for _, f := range frames {
			receive(f)
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		allocated += after.TotalAlloc - before.TotalAlloc
		done += len(frames)
	}
	deliveries := float64(b.N * perFrame)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/deliveries, "ns/delivery")
	b.ReportMetric(float64(mallocs)/deliveries, "allocs/delivery")
	b.ReportMetric(float64(allocated)/deliveries, "B/delivery")
}

// BenchmarkReceivePath times one hop's receive path, frame by frame on
// the benchmark's goroutine, from the transport's receiver to the last
// thing the hop does with the frame:
//   - edge_2k: a subscriber edge, as on fanout8_2k — the endpoint decodes
//     the frame its rendezvous fanned out, the hop filter checks its ID,
//     the engine decodes the 2 kB offer and runs the callback;
//   - rendezvous_8x2k: a rendezvous fanning the publisher's frame out to
//     eight subscribers whose sends go nowhere (a null transport);
//   - rendezvous_durable_8x2k: the same rendezvous with its event log on
//     (in the benchmark's temporary directory), appending every frame it
//     forwards before it fans it out;
//   - edge_64b: the subscriber edge with a 64 B offer, where the fixed
//     per-hop cost dominates.
//
// Every frame carries a fresh message ID, so the hop filter sees new
// events and, past its capacity, evicts as it does live. A delivery is
// a callback run at an edge and a send at the rendezvous.
func BenchmarkReceivePath(b *testing.B) {
	edge := func(pad int) func(b *testing.B) {
		return func(b *testing.B) {
			st := newReceiveStack(b, 1, pad, "")
			st.rdv.mode.Store(linkCapture)
			sub := st.subs[0]
			runReceive(b, sub.receive, func(n int) [][]byte { return st.fannedOut(b, n) }, 1)
			if got := st.delivered.Load(); got != int64(b.N) {
				b.Fatalf("%d frames ran %d callbacks", b.N, got)
			}
		}
	}
	b.Run("edge_2k", edge(1710))
	rendezvous := func(durable bool) func(b *testing.B) {
		return func(b *testing.B) {
			const subs = 8
			logDir := ""
			if durable {
				logDir = b.TempDir()
			}
			st := newReceiveStack(b, subs, 1710, logDir)
			st.rdv.mode.Store(linkDrop)
			sent := st.rdvStats().Counter("endpoint", "msgs_out")
			runReceive(b, st.rdv.receive, func(n int) [][]byte { return st.published(b, n) }, subs)
			if got := st.rdvStats().Counter("endpoint", "msgs_out") - sent; got != int64(b.N*subs) {
				b.Fatalf("%d frames fanned out to %d sends, want %d", b.N, got, b.N*subs)
			}
		}
	}
	b.Run("rendezvous_8x2k", rendezvous(false))
	b.Run("rendezvous_durable_8x2k", rendezvous(true))
	b.Run("edge_64b", edge(64))
}

// TestEdgeDeliveryAllocBudget gates the subscriber edge that
// BenchmarkReceivePath's edge variants time, a 64 B and a 2 kB offer: a
// frame in off the transport, the hop filter, the engine's decode from
// the frame's view and the callback allocate one object a delivery,
// the decoded value's block: nothing decodes the frame into a message.
func TestEdgeDeliveryAllocBudget(t *testing.T) {
	if israce.Enabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	for _, pad := range []int{64, 1710} {
		st := newReceiveStack(t, 1, pad, "")
		st.rdv.mode.Store(linkCapture)
		const runs = 200
		frames := st.fannedOut(t, runs+2) // one to warm up, and AllocsPerRun runs once more first
		sub := st.subs[0]
		sub.receive(frames[0])
		next := 1
		allocs := testing.AllocsPerRun(runs, func() {
			sub.receive(frames[next])
			next++
		})
		if got := st.delivered.Load(); got != runs+2 {
			t.Fatalf("%d B pad: %d frames ran %d callbacks", pad, runs+2, got)
		}
		if allocs > 1 {
			t.Errorf("%d B pad: an edge delivery allocates %.1f objects, budget is 1 (measured 1: the decoded value; 2 with the frame decoded into a message for the engine)", pad, allocs)
		}
	}
}
