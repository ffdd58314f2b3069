package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/tps-p2p/tps/internal/core/codec"
	"github.com/tps-p2p/tps/internal/eventlog"
	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/message"
	"github.com/tps-p2p/tps/internal/jxta/rendezvous/replica"
	"github.com/tps-p2p/tps/internal/jxta/seen"
	"github.com/tps-p2p/tps/internal/jxta/transport/tcpnet"
	"github.com/tps-p2p/tps/internal/jxta/wire"
)

// Layer replay: the bench builds the event a workload publishes and the
// four-element message the engine wraps it in, and times calls into each
// layer's public functions in isolation. The numbers say what one call
// costs; the counters of the end-to-end run say how many calls a
// delivery makes; budget.go multiplies the two.

// timeCalls runs fn in batches for at least d and returns nanoseconds
// and heap allocations per call.
func timeCalls(d time.Duration, fn func()) (ns, allocs float64) {
	fn() // first call: lazy initialisation is not the steady state
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	calls, batch := 0, 16
	start := time.Now()
	var elapsed time.Duration
	for elapsed < d {
		for i := 0; i < batch; i++ {
			fn()
		}
		calls += batch
		elapsed = time.Since(start)
		if elapsed < d/100 {
			batch *= 2
		}
	}
	runtime.ReadMemStats(&ms)
	return float64(elapsed.Nanoseconds()) / float64(calls), float64(ms.Mallocs-mallocs) / float64(calls)
}

// nullTransport gives an endpoint service the local address it stamps
// into every frame, and swallows sends.
type nullTransport struct{}

func (nullTransport) Scheme() string                      { return "tcp" }
func (nullTransport) LocalAddress() endpoint.Address      { return "tcp://127.0.0.1:9701" }
func (nullTransport) Send(endpoint.Address, []byte) error { return nil }
func (nullTransport) SetReceiver(func([]byte))            {}
func (nullTransport) Close() error                        { return nil }

// eventMessage builds the message engine.Publish builds around a blob.
func eventMessage(src jid.ID, blob []byte) *message.Message {
	msg := message.New(src)
	msg.Grow(4)
	msg.AddID("tps", "EventID", jid.NewMessage())
	msg.AddString("tps", "Path", eventNode.Path())
	msg.AddString("tps", "Codec", codec.Gob{}.Name())
	msg.AddBytes("tps", "Data", blob)
	return msg
}

// replayLayers times every layer on events of the given size. d is the
// minimum time spent per function.
func replayLayers(seed int64, size string, d time.Duration, tmpParent string) (map[string]metric, error) {
	pl, err := newPayloads(seed, size)
	if err != nil {
		return nil, err
	}
	out := map[string]metric{}
	put := func(name string, ns, allocs float64, withAllocs bool) {
		out[name+"_ns"] = metric{ns, "ns"}
		if withAllocs {
			out[name+"_allocs"] = metric{allocs, "count"}
		}
	}
	var seq uint64
	next := func() Event { seq++; ev := pl.event(seq); ev.SentNS = nowNS(); return ev }

	// codec: what Publish pays once per event and each subscriber once
	// per delivery.
	gob := codec.Gob{}
	ns, allocs := timeCalls(d, func() { _, _ = gob.Encode(next()) })
	put("codec.encode", ns, allocs, true)
	blob, err := gob.Encode(next())
	if err != nil {
		return nil, err
	}
	ns, allocs = timeCalls(d, func() { _, _ = gob.Decode(blob, eventNode.Type()) })
	put("codec.decode", ns, allocs, true)

	// message and endpoint: one frame encode per hop (the rendezvous
	// encodes once per fan-out), one unmarshal per frame received.
	self := jid.NewPeer()
	msg := eventMessage(self, blob)
	buf := make([]byte, 0, msg.WireSize())
	ns, allocs = timeCalls(d, func() { buf, _ = msg.MarshalAppend(buf[:0]) })
	put("message.marshal", ns, allocs, false)
	ep := endpoint.New(self)
	if err := ep.AddTransport(nullTransport{}); err != nil {
		return nil, err
	}
	group := jid.NewGroup().String()
	ns, allocs = timeCalls(d, func() {
		f, _ := ep.EncodeFrame(wire.ServiceName, group, msg)
		endpoint.RecycleFrame(f)
	})
	put("endpoint.encode_frame", ns, allocs, true)
	frame, err := ep.EncodeFrame(wire.ServiceName, group, msg)
	if err != nil {
		return nil, err
	}
	frame = append([]byte(nil), frame...)
	ns, allocs = timeCalls(d, func() { _, _ = message.Unmarshal(frame) })
	put("message.unmarshal", ns, allocs, true)
	ns, allocs = timeCalls(d, func() { _ = msg.Dup() })
	put("message.dup", ns, allocs, false)

	// seen: three caches see every delivery (rendezvous, wire, engine).
	// One cache runs into its steady state — full, evicting per insert.
	cache, n := seen.New(), uint64(0)
	ns, allocs = timeCalls(d, func() { n++; cache.Observe(jid.FromSeed(jid.KindMessage, n)) })
	put("seen.observe", ns, allocs, false)
	dup := jid.FromSeed(jid.KindMessage, n)
	ns, allocs = timeCalls(d, func() { cache.Observe(dup) })
	put("seen.observe_dup", ns, allocs, false)

	// eventlog and replica: default retention and sync policy, as in the
	// durable workloads.
	tmp, err := os.MkdirTemp(tmpParent, "layers-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	elog, err := eventlog.Open(eventlog.Config{Dir: tmp + "/own"})
	if err != nil {
		return nil, err
	}
	defer elog.Close()
	// A quarter of the time: appends go through the page cache at
	// hundreds of MB/s and the write-back would disturb what follows.
	ns, allocs = timeCalls(d/4, func() {
		_, _ = elog.Append(group, func(uint64) ([]byte, error) { return frame, nil })
	})
	put("eventlog.append", ns, allocs, false)
	_, last, _ := elog.Range(group)
	ns, _ = timeCalls(d, func() {
		_ = elog.Read(group, last-catchupDepth, 0, func(eventlog.Entry) error { return nil })
	})
	out["eventlog.read_ns_per_entry"] = metric{ns / catchupDepth, "ns"}

	copyLog, err := eventlog.Open(eventlog.Config{Dir: tmp + "/copy"})
	if err != nil {
		return nil, err
	}
	defer copyLog.Close()
	store, origin, applied := replica.NewStore(copyLog, self), jid.NewPeer(), uint64(0)
	ns, allocs = timeCalls(d/4, func() {
		applied++
		_, _, _ = store.Apply(origin, group, applied, int64(applied), frame, 0)
	})
	put("replica.apply", ns, allocs, false)
	ns, allocs = timeCalls(d, func() { _ = store.Digest() })
	put("replica.digest", ns, allocs, false)

	if err := replayTCP(frame, d, out); err != nil {
		return nil, err
	}
	return out, nil
}

// replayTCP times tcpnet alone between two transports on loopback:
// Send (enqueue + copy), a one-way stream under the live workloads'
// credit window, and a single-frame echo.
func replayTCP(frame []byte, d time.Duration, out map[string]metric) error {
	a, err := tcpnet.Listen(loopback)
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := tcpnet.Listen(loopback)
	if err != nil {
		return err
	}
	defer b.Close()
	const w = 32
	credits := make(chan struct{}, w)
	echo := make(chan struct{}, 1)
	// b returns a credit per frame; frames tagged with a leading 0xff are
	// echoed instead, and a signals the echo's arrival.
	ping := append([]byte{0xff}, frame...)
	b.SetReceiver(func(f []byte) {
		if f[0] == 0xff {
			_ = b.Send(a.LocalAddress(), f)
			return
		}
		credits <- struct{}{}
	})
	a.SetReceiver(func([]byte) { echo <- struct{}{} })
	to := b.LocalAddress()

	// One-way stream: w frames in flight, like fanout8_2k's publisher.
	for i := 0; i < w; i++ {
		credits <- struct{}{}
	}
	var sendNS int64
	frames := 0
	cpu0, start := processCPU(), time.Now()
	for time.Since(start) < d {
		<-credits
		t0 := time.Now()
		if err := a.Send(to, frame); err != nil {
			return fmt.Errorf("tcpnet replay: %w", err)
		}
		sendNS += time.Since(t0).Nanoseconds()
		frames++
	}
	elapsed, cpu := time.Since(start), processCPU()-cpu0
	for i := 0; i < w; i++ { // drain
		<-credits
	}
	out["tcpnet.send_ns"] = metric{float64(sendNS) / float64(frames), "ns"}
	out["tcpnet.loop_frames_per_s"] = metric{float64(frames) / elapsed.Seconds(), "1/s"}
	out["tcpnet.loop_cpu_ns_per_frame"] = metric{float64(cpu.Nanoseconds()) / float64(frames), "ns"}

	var rtts []float64
	for start = time.Now(); time.Since(start) < d; {
		t0 := time.Now()
		if err := a.Send(to, ping); err != nil {
			return fmt.Errorf("tcpnet replay: %w", err)
		}
		<-echo
		rtts = append(rtts, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	out["tcpnet.loop_rtt_p50_us"] = metric{percentile(rtts, 50), "us"}
	if st := a.Stats(); st.Dropped > 0 {
		return fmt.Errorf("tcpnet replay shed %d frames", st.Dropped)
	}
	return nil
}
