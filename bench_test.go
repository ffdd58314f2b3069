// bench_test.go maps every figure of the paper's evaluation (§5) to a
// testing.B benchmark, plus ablation benches for the design choices
// DESIGN.md calls out. The figure benches drive the same benchkit
// harness as cmd/benchfig, at a compressed time scale; regenerating the
// actual curves is cmd/benchfig's job.
package tps_test

import (
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	tps "github.com/tps-p2p/tps"
	"github.com/tps-p2p/tps/internal/benchkit"
	"github.com/tps-p2p/tps/internal/core/codec"
	"github.com/tps-p2p/tps/internal/core/typereg"
	"github.com/tps-p2p/tps/internal/eventlog"
	"github.com/tps-p2p/tps/internal/israce"
	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/message"
	"github.com/tps-p2p/tps/internal/jxta/rendezvous"
	"github.com/tps-p2p/tps/internal/jxta/seen"
	"github.com/tps-p2p/tps/internal/obs/hist"
	"github.com/tps-p2p/tps/internal/rig"
	"github.com/tps-p2p/tps/internal/srapp"
)

func benchProfile() benchkit.Profile { return benchkit.Paper2001(0.001) }

func benchCluster(b *testing.B, stack benchkit.Stack, pubs, subs int) *benchkit.Cluster {
	b.Helper()
	c, err := benchkit.NewCluster(benchkit.Config{
		Stack: stack, Publishers: pubs, Subscribers: subs, Profile: benchProfile(),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	return c
}

// BenchmarkFig18InvocationTime measures the publisher's per-event send
// cost (the paper's Figure 18) for each stack and subscriber count.
// ns/op is the invocation time.
func BenchmarkFig18InvocationTime(b *testing.B) {
	for _, stack := range benchkit.DefaultStacks {
		for _, subs := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/%dsub", stack, subs), func(b *testing.B) {
				c := benchCluster(b, stack, 1, subs)
				offer := c.Offer(0)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := c.Pubs[0].Publish(offer); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				c.WaitQuiesce(30 * time.Second)
			})
		}
	}
}

// BenchmarkFig19PublisherThroughput reports the send-side event rate
// (the paper's Figure 19) as events/sec.
func BenchmarkFig19PublisherThroughput(b *testing.B) {
	for _, stack := range benchkit.DefaultStacks {
		for _, subs := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/%dsub", stack, subs), func(b *testing.B) {
				c := benchCluster(b, stack, 1, subs)
				offer := c.Offer(0)
				b.ResetTimer()
				start := time.Now()
				for i := 0; i < b.N; i++ {
					if err := c.Pubs[0].Publish(offer); err != nil {
						b.Fatal(err)
					}
				}
				elapsed := time.Since(start)
				b.StopTimer()
				if elapsed > 0 {
					b.ReportMetric(float64(b.N)/elapsed.Seconds(), "events/sec")
				}
				c.WaitQuiesce(30 * time.Second)
			})
		}
	}
}

// BenchmarkFig20SubscriberThroughput floods the subscriber and reports
// its drain rate (the paper's Figure 20) as events/sec. The receiver's
// simulated processing cost bounds the rate, so the metric reflects the
// saturation plateau, not the publish loop.
func BenchmarkFig20SubscriberThroughput(b *testing.B) {
	for _, stack := range benchkit.DefaultStacks {
		for _, pubs := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/%dpub", stack, pubs), func(b *testing.B) {
				c := benchCluster(b, stack, pubs, 1)
				offer := c.Offer(0)
				base := c.Subs[0].Received()
				b.ResetTimer()
				start := time.Now()
				for i := 0; i < b.N; i++ {
					if err := c.Pubs[i%pubs].Publish(offer); err != nil {
						b.Fatal(err)
					}
				}
				// Drain: subscriber throughput is measured at the
				// receiving side.
				deadline := time.Now().Add(60 * time.Second)
				for c.Subs[0].Received() < base+b.N && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				elapsed := time.Since(start)
				b.StopTimer()
				got := c.Subs[0].Received() - base
				if elapsed > 0 {
					b.ReportMetric(float64(got)/elapsed.Seconds(), "events/sec")
				}
			})
		}
	}
}

// --- ablations ---

// BenchmarkAblationDedupe measures the duplicate-suppression cache on
// the hot path (every delivered wire message pays one Observe).
func BenchmarkAblationDedupe(b *testing.B) {
	b.Run("all-new", func(b *testing.B) {
		c := seen.New(seen.WithCapacity(1 << 20))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Observe(jid.FromSeed(jid.KindMessage, uint64(i)))
		}
	})
	b.Run("all-duplicate", func(b *testing.B) {
		c := seen.New()
		id := jid.FromSeed(jid.KindMessage, 1)
		c.Observe(id)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Observe(id)
		}
	})
}

// BenchmarkAblationSubtypeDispatch measures the Figure 7 delivery
// predicate at increasing hierarchy depths.
func BenchmarkAblationSubtypeDispatch(b *testing.B) {
	type l0 struct{ A int }
	type l1 struct{ A int }
	type l2 struct{ A int }
	type l3 struct{ A int }
	reg := typereg.New()
	types := []reflect.Type{
		reflect.TypeOf(l0{}), reflect.TypeOf(l1{}),
		reflect.TypeOf(l2{}), reflect.TypeOf(l3{}),
	}
	var parent *typereg.Node
	nodes := make([]*typereg.Node, 0, len(types))
	for _, t := range types {
		n, err := reg.Register(t, parent)
		if err != nil {
			b.Fatal(err)
		}
		nodes = append(nodes, n)
		parent = n
	}
	leaf := types[len(types)-1]
	for depth, root := range nodes {
		b.Run(fmt.Sprintf("depth%d", len(nodes)-1-depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !reg.Assignable(root, leaf) {
					b.Fatal("leaf must be assignable to its ancestors")
				}
			}
		})
	}
}

// localPublishDeliverLoop assembles a single-peer platform with one
// subscriber and returns a function that publishes one paper-sized event
// and blocks until the engine delivers it locally — the full encode,
// publish, dispatch round trip — plus the platform, so
// callers can read the latency histograms the loop fills.
// BenchmarkLocalPublishDeliver times it; TestHotPathAllocBudget gates
// its allocation count.
func localPublishDeliverLoop(tb testing.TB) (func(), *tps.Platform) {
	tb.Helper()
	solo := rig.New(tb, rig.Netsim).Start(tps.Config{Name: "solo"})
	_, iface := rig.Engine[srapp.SkiRental](tb, solo)
	delivered := make(chan struct{}, 1)
	err := iface.Subscribe(tps.CallBackFunc[srapp.SkiRental](func(srapp.SkiRental) error {
		delivered <- struct{}{}
		return nil
	}), nil)
	if err != nil {
		tb.Fatal(err)
	}
	offer := srapp.Pad(srapp.SkiRental{Shop: "XTremShop", Brand: "Salomon", Price: 14, NumberOfDays: 100}, 1710)
	return func() {
		if err := iface.Publish(offer); err != nil {
			tb.Fatal(err)
		}
		<-delivered
	}, solo.Platform
}

// TestRemoteHotPathAllocBudget gates what TestHotPathAllocBudget cannot
// see: the hops. A 64-byte event crosses publisher → rendezvous →
// subscriber over loopback TCP, one at a time; every heap object the
// process allocates meanwhile (all three peers, their flushers and
// readers, lease upkeep) is charged to the round trips.
// bench's pingpong1_64b measures the same path with four events in
// flight at 5.0 per delivery — 6.0 before a decoded value headed the
// block its strings and bytes are cut from, 9.0 before a publish wrote
// its blob into its message's block and the rendezvous stamped the
// message it was given instead of a copy, 12.0 before a plan decoded
// into a reused value and one block and a built message held its event
// ID, 16.0
// before a flat event decoded through a plan instead of a kept gob
// decoder, 20.3 before a received frame stopped being copied into the
// message decoded from it, 29.4 before a publish stopped copying the
// message to envelope it, 68.6 before a hop stopped copying what it
// only forwards; this loop has one in flight, so every flush carries
// one frame, and also pays the callback and the interface's received
// list: it reads 6.0 now that the subscriber's engine decodes the event
// from the view of its frame and builds no message either, and read 7.0
// before that (the rendezvous forwarding the bytes it received), 8.1,
// 9.2, 12.2, 14.2, 16.2, 21, 31 and 84.
func TestRemoteHotPathAllocBudget(t *testing.T) {
	if israce.Enabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	c := rig.New(t, rig.TCP)
	c.Start(tps.Config{Name: "rdv", Rendezvous: true})
	sub := c.Start(tps.Config{Name: "sub", Seeds: []string{"rdv"}})
	pub := c.Start(tps.Config{Name: "pub", Seeds: []string{"rdv"}})
	subEng, subIntf := rig.Engine[srapp.SkiRental](t, sub)
	delivered := make(chan struct{}, 1)
	err := subIntf.Subscribe(tps.CallBackFunc[srapp.SkiRental](func(srapp.SkiRental) error {
		delivered <- struct{}{}
		return nil
	}), nil)
	if err != nil {
		t.Fatal(err)
	}
	pubEng, pubIntf := rig.Engine[srapp.SkiRental](t, pub)
	if err := pubEng.Announce(); err != nil {
		t.Fatal(err)
	}
	if !pubEng.AwaitReady(1, 10*time.Second) || !subEng.AwaitReady(1, 10*time.Second) {
		t.Fatal("engines not ready")
	}
	offer := srapp.Pad(srapp.SkiRental{Shop: "XTremShop", Brand: "Salomon", Price: 14, NumberOfDays: 100}, 64)
	roundTrips := func(n int) {
		for i := 0; i < n; i++ {
			if err := pubIntf.Publish(offer); err != nil {
				t.Fatal(err)
			}
			select {
			case <-delivered:
			case <-time.After(10 * time.Second):
				t.Fatalf("event %d never arrived", i)
			}
		}
	}
	roundTrips(500) // warm attachments, pools, connections and gob type machinery
	const n = 2000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	roundTrips(n)
	runtime.ReadMemStats(&after)
	if per := float64(after.Mallocs-before.Mallocs) / n; per > 7 {
		t.Errorf("publish → rendezvous → deliver over TCP allocates %.1f objects per round trip, budget is 7 (measured 6.0; 7.0 with the subscriber decoding the frame into a message for its engine, 8.1 with the rendezvous decoding the frame it forwards, 9.2 with the decoded value's interface copy apart from its block, 12.2 with the blob apart from its message and Propagate's copy, 14.2 with a plan that allocated its value and each field, 16.2 with a kept gob decoder, 21 with each received frame copied into an arena, 31 with the publisher's envelope copies, 84 with per-hop ones)", per)
	} else {
		t.Logf("%.1f objects per round trip", per)
	}
}

// BenchmarkLocalPublishDeliver measures the full local publish→deliver
// round trip — encode, publish, dispatch of the published value —
// on one isolated platform. allocs/op here is the hot-path allocation
// budget the zero-allocation work targets; TestHotPathAllocBudget gates
// it so regressions fail tests, not just benchmarks. The publish-stage
// latency percentiles come straight from the platform's always-on
// histograms, so the benchmark reports the same numbers an operator
// would read off `tpsctl latency` or /metrics.
func BenchmarkLocalPublishDeliver(b *testing.B) {
	roundTrip, p := localPublishDeliverLoop(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
	b.StopTimer()
	if s, ok := p.Stats().Subsystem("engine"); ok {
		if h, ok := s.Hists["publish_fanout_us"]; ok && h.Count > 0 {
			b.ReportMetric(h.Quantile(0.50), "p50_us")
			b.ReportMetric(h.Quantile(0.90), "p90_us")
			b.ReportMetric(h.Quantile(0.99), "p99_us")
		}
	}
}

// BenchmarkSeenObserve measures the dedupe cache under the two shapes the
// mesh produces: a single hot connection (serial) and many connections
// deduplicating concurrently (parallel, where the lock-striped shards
// must scale instead of serialising on a global mutex). The parallel-dup
// variant is the flooding steady state: every Observe is a replay.
func BenchmarkSeenObserve(b *testing.B) {
	b.Run("serial", func(b *testing.B) {
		c := seen.New(seen.WithCapacity(1 << 16))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Observe(jid.FromSeed(jid.KindMessage, uint64(i)))
		}
	})
	b.Run("parallel", func(b *testing.B) {
		c := seen.New(seen.WithCapacity(1 << 16))
		var next atomic.Uint64
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				c.Observe(jid.FromSeed(jid.KindMessage, next.Add(1)))
			}
		})
	})
	b.Run("parallel-dup", func(b *testing.B) {
		c := seen.New(seen.WithCapacity(1 << 16))
		const hot = 64 // a few in-flight events echoed by every mesh path
		for i := 0; i < hot; i++ {
			c.Observe(jid.FromSeed(jid.KindMessage, uint64(i)))
		}
		var next atomic.Uint64
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				c.Observe(jid.FromSeed(jid.KindMessage, next.Add(1)%hot))
			}
		})
	})
}

// TestHotPathAllocBudget is the regression gate behind the codec
// benchmarks: every layer an event crosses must stay within a fixed
// allocation budget, measured + 20 %. The seed decoded every wire ID
// through a hex string + jid.Parse round trip (19 allocs/op to unmarshal
// a one-element frame) and deep-copied on delivery (246 allocs/op for
// the local round trip); binary IDs, copy-on-write Dup, the sharded seen
// cache, decode-once dispatch, compile-once gob, a one-arena Unmarshal,
// an aliasing Message.Text and an envelope written into the frame
// brought the round trip to 16, an event frame's Unmarshal to 3 and its
// EncodeFrame to 0; a message built as one block, a wire send that
// copies nothing and a dispatch that selects on its stack, to 6; an
// Unmarshal that cuts the message out of a frame it was given, to 1;
// an event ID written into its message's block, the round trip to 5; a
// publish that delivers its value locally and a Propagate that stamps
// the message it is given, to 3: the event's interface copy, the
// message's block and a blob too large for the block's payload room.
// TestRemoteHotPathAllocBudget gates the same event across three hops
// of loopback TCP.
// textSink keeps the compiler from proving a routing read unused.
var textSink [2]string

func TestHotPathAllocBudget(t *testing.T) {
	if israce.Enabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	roundTrip, _ := localPublishDeliverLoop(t)
	roundTrip() // warm attachments, pools and gob type machinery
	e2eAllocs := testing.AllocsPerRun(300, roundTrip)
	if e2eAllocs > 3 {
		t.Errorf("publish→deliver round trip allocates %.1f/op, budget is 3 (measured 3; 5 with Propagate's copy and its envelope slice, 6 with the event ID's payload apart from the message, 16 with the wire's and Propagate's envelope copies, pre-COW path was 246)", e2eAllocs)
	}

	offer := srapp.Pad(srapp.SkiRental{Shop: "XTremShop", Brand: "Salomon", Price: 14, NumberOfDays: 100}, 1710)
	gob := codec.Gob{}
	blob, err := gob.Encode(offer)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() { _, _ = gob.Encode(offer) }); n > 4 {
		t.Errorf("Gob.Encode allocates %.1f/op, budget is 4 (a fresh encoder per event was 23)", n)
	}
	offerType := reflect.TypeOf(offer)
	if _, err := gob.Decode(blob, offerType); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() { _, _ = gob.Decode(blob, offerType) }); n > 1 {
		t.Errorf("Gob.Decode allocates %.1f/op, budget is 1: the block the value heads and its strings and bytes are cut from (its interface copy apart from the block was 2, a plan that allocated the value and each field was 4, a kept decoder 5, a fresh decoder per event 178)", n)
	}

	// The event as it crosses the network, inside the endpoint's
	// three-element envelope, as an older publisher built it: the
	// tps:EventID element beside the tps:Data that engine.Publish builds
	// alone now, so the budgets below hold for both shapes.
	self := jid.FromSeed(jid.KindPeer, 1)
	m := message.New(self)
	m.Stamp(jid.FromSeed(jid.KindPeer, 2)) // one hop behind it, as a frame off a rendezvous has
	m.AddID("tps", "EventID", jid.NewMessage())
	m.AddBytes("tps", "Data", blob)
	ep := endpoint.New(self)
	defer ep.Close()
	pooled, err := ep.EncodeFrame("jxta.service.wire", jid.FromSeed(jid.KindGroup, 3).String(), m)
	if err != nil {
		t.Fatal(err)
	}
	frame := append([]byte(nil), pooled...)
	endpoint.RecycleFrame(pooled)
	encodeAllocs := testing.AllocsPerRun(200, func() {
		f, err := ep.EncodeFrame("jxta.service.wire", "group", m)
		if err != nil {
			t.Fatal(err)
		}
		endpoint.RecycleFrame(f)
	})
	if encodeAllocs > 1 {
		t.Errorf("EncodeFrame + RecycleFrame allocate %.1f/op, budget is 1 (measured 0; a private copy to envelope was 5)", encodeAllocs)
	}

	marshalAllocs := testing.AllocsPerRun(200, func() {
		if _, err := m.Marshal(); err != nil {
			t.Fatal(err)
		}
	})
	if marshalAllocs > 1 {
		t.Errorf("Marshal allocates %.1f/op, budget is 1 (the frame itself)", marshalAllocs)
	}

	buf := make([]byte, 0, m.WireSize())
	appendAllocs := testing.AllocsPerRun(200, func() {
		if _, err := m.MarshalAppend(buf); err != nil {
			t.Fatal(err)
		}
	})
	if appendAllocs > 0 {
		t.Errorf("MarshalAppend into a sized buffer allocates %.1f/op, budget is 0", appendAllocs)
	}

	unmarshalAllocs := testing.AllocsPerRun(200, func() {
		if got, err := message.Unmarshal(frame); err != nil || got.Len() != 5 {
			t.Fatal(got.Len(), err)
		}
	})
	if unmarshalAllocs > 1 {
		t.Errorf("Unmarshal of a five-element event frame allocates %.1f/op, budget is 1 (the block: header, path room and thirteen element headers, names and payloads left in the frame; 3 with the headers apart and the frame copied into an arena, 43 with one allocation set per element)", unmarshalAllocs)
	}
	fifteen := m.Dup()
	for fifteen.Len() < 15 {
		fifteen.AddUint64("app", fmt.Sprint(fifteen.Len()), 0)
	}
	wide, err := fifteen.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if got, err := message.Unmarshal(wide); err != nil || got.Len() != 15 {
			t.Fatal(got.Len(), err)
		}
	}); n > 2 {
		t.Errorf("Unmarshal of a fifteen-element frame allocates %.1f/op, budget is 2 (the block and the element headers it has no room for)", n)
	}

	// A received frame is routed on text elements, which endpoint and
	// rendezvous read between the socket and the callback. Each read was
	// a string conversion of the payload, 19 % of all objects allocated
	// on fanout8_2k.
	got, err := message.Unmarshal(frame)
	if err != nil {
		t.Fatal(err)
	}
	routeAllocs := testing.AllocsPerRun(200, func() {
		textSink[0], textSink[1], _ = endpoint.Destination(got)
	})
	if routeAllocs > 0 || textSink[0] != "jxta.service.wire" {
		t.Errorf("two routing reads allocate %.1f, budget is 0 (read %q)", routeAllocs, textSink)
	}

	// The durable log's only presence on the log-off delivery path is the
	// ReplayInfo probe for the rdv:Seq cursor stamp. On a frame that
	// never crossed a logging rendezvous (the default configuration) that
	// probe must cost nothing — the e2e budget above runs with the log
	// off, and this pins the reason it can.
	view, err := message.NewView(frame)
	if err != nil {
		t.Fatal(err)
	}
	replayAllocs := testing.AllocsPerRun(200, func() {
		if _, _, ok := rendezvous.ReplayInfo(&view); ok {
			t.Fatal("unstamped frame must have no replay info")
		}
	})
	if replayAllocs > 0 {
		t.Errorf("ReplayInfo on an unstamped message allocates %.1f/op, budget is 0", replayAllocs)
	}

	// The always-on latency histograms sit on every one of those paths;
	// recording must stay two atomic adds, never an allocation, or the
	// e2e budget above silently absorbs observability cost.
	h := hist.New()
	histAllocs := testing.AllocsPerRun(200, func() { h.Observe(123 * time.Microsecond) })
	if histAllocs > 0 {
		t.Errorf("hist.Observe allocates %.1f/op, budget is 0", histAllocs)
	}
}

// BenchmarkEventLogAppend measures the durable log's append cost at the
// paper's frame size, per fsync policy. This is the price a rendezvous
// pays on its forwarding path when durability is enabled; the log-off
// default pays none of it (TestHotPathAllocBudget pins that).
func BenchmarkEventLogAppend(b *testing.B) {
	frame := make([]byte, 1990) // paper-sized event frame incl. envelope
	for _, pol := range []struct {
		name string
		sync eventlog.SyncPolicy
	}{
		{"none", eventlog.SyncNone},
		{"roll", eventlog.SyncRoll},
		{"always", eventlog.SyncAlways},
	} {
		b.Run(pol.name, func(b *testing.B) {
			log, err := eventlog.Open(eventlog.Config{Dir: b.TempDir(), Sync: pol.sync})
			if err != nil {
				b.Fatal(err)
			}
			defer log.Close()
			b.SetBytes(int64(len(frame)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := log.Append("bench-topic", func(uint64) ([]byte, error) {
					return frame, nil
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMessageCodec measures the wire frame codec at the paper's
// message size.
func BenchmarkMessageCodec(b *testing.B) {
	m := message.New(jid.FromSeed(jid.KindPeer, 1))
	payload := make([]byte, 1910)
	m.AddBytes("bench", "payload", payload)
	b.Run("marshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := m.Marshal(); err != nil {
				b.Fatal(err)
			}
		}
	})
	frame, err := m.Marshal()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := message.Unmarshal(frame); err != nil {
				b.Fatal(err)
			}
		}
	})
}
