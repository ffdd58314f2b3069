package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/tps-p2p/tps/internal/jxta/rendezvous/replica"
)

// runOpts is how one workload run is sized. The benchmark of record
// uses defaultOpts; the smoke test shrinks every duration.
type runOpts struct {
	seed   int64
	window time.Duration // timed window
	warmup time.Duration // untimed traffic before it
	drain  time.Duration // how long in-flight events may take to land after it
	// setups is how many times the cluster is set up; the last one is
	// measured and setup_s is the median over all of them.
	setups int
	// minJoiners late joiners run even when the window is shorter.
	minJoiners  int
	joinTimeout time.Duration
	traced      bool
	outDir      string // trace files and the rendezvous' log directories
}

func defaultOpts(seed int64, seconds int, outDir string) runOpts {
	return runOpts{
		seed: seed, window: time.Duration(seconds) * time.Second,
		warmup: 2 * time.Second, drain: 3 * time.Second,
		setups: 3, minJoiners: 3, joinTimeout: 10 * time.Second, outDir: outDir,
	}
}

// result is what one run of one workload reports; it is also the format
// of a result file.
type result struct {
	Workload     string  `json:"workload"`
	Env          env     `json:"env"`
	Seed         int64   `json:"seed"`
	CreditWindow int     `json:"credit_window"`
	TimedSeconds float64 `json:"timed_seconds"`
	Traced       bool    `json:"traced"`
	BlobBytes    [2]int  `json:"gob_blob_bytes_min_max"`

	Attempted  int64 `json:"attempted"`
	Failed     int64 `json:"failed"`
	Correct    bool  `json:"correct"`
	Duplicates int64 `json:"duplicates"`
	Corrupt    int64 `json:"corrupt"`

	// SliceRates is deliveries per second in each slice of the timed
	// window, in time order: how steady the host was during the run.
	SliceRates []float64 `json:"slice_deliveries_per_s,omitempty"`
	// Samples is how many samples stand behind each percentile.
	Samples    map[string]int    `json:"samples"`
	EndToEnd   map[string]metric `json:"end_to_end,omitempty"`
	Diagnostic map[string]metric `json:"diagnostic,omitempty"`
	PerLayer   map[string]metric `json:"per_layer,omitempty"`
}

func newResult(wl workload, pl *payloads, o runOpts) *result {
	return &result{
		Workload: wl.name, Env: readEnv(), Seed: o.seed, CreditWindow: wl.w, Traced: o.traced,
		BlobBytes: [2]int{pl.blobMin, pl.blobMax},
		Samples:   map[string]int{}, EndToEnd: map[string]metric{},
		Diagnostic: map[string]metric{}, PerLayer: map[string]metric{},
	}
}

// settle fills in the failure accounting. A duplicate or a corrupt
// payload is a correctness bug, not a slow delivery: it counts as failed
// and makes the run incorrect.
func (r *result) settle(attempted int64, t tally) {
	r.Attempted = attempted
	r.Duplicates, r.Corrupt = t.dups, t.corrupt
	r.Failed = max(attempted-t.arrived, 0) + t.dups + t.corrupt
	r.Correct = t.dups == 0 && t.corrupt == 0
}

func runWorkload(wl workload, o runOpts) (*result, error) {
	pl, err := newPayloads(o.seed, wl.size)
	if err != nil {
		return nil, err
	}
	tmp := filepath.Join(o.outDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	var tr *tracer
	if o.traced {
		tr = newTracer()
		o.setups = 1 // a traced run reports no setup_s
	}
	res := newResult(wl, pl, o)
	var c *cluster
	var published uint64
	if wl.depth > 0 {
		c, err = runCatchup(wl, pl, o, tr, tmp, res)
	} else {
		c, published, err = runLive(wl, pl, o, tr, tmp, res)
	}
	if c != nil {
		defer c.close()
	}
	if err != nil {
		return nil, err
	}
	if tr != nil {
		// The hop trace is read over the peers' admin endpoints, so
		// before they close.
		all := tr.assemble()
		res.PerLayer = traceMetrics(all)
		for k, m := range hopMetrics(c.livePeers()) {
			res.PerLayer[k] = m
		}
		if wl.depth > 0 {
			published = uint64(wl.depth)
		}
		if err := writeTrace(filepath.Join(o.outDir, "trace_"+wl.name+".json"), res.Env, all, published); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// setUp boots the cluster and runs start on it, and returns the seconds
// both took: that is one sample of setup_s.
func setUp(wl workload, pl *payloads, tr *tracer, tmp string, start func(*cluster) error) (*cluster, float64, error) {
	t0 := time.Now()
	c, err := bootCluster(wl, pl, tr, tmp)
	if err != nil {
		return nil, 0, err
	}
	if err := start(c); err != nil {
		return c, 0, err
	}
	return c, time.Since(t0).Seconds(), nil
}

// moreSetUps closes the measured cluster and sets the cluster up again
// until o.setups samples of setup_s exist. They come after the
// measurement on purpose: with one event in flight, a process that had
// already set up and closed a cluster ran pingpong1_64b in one of two
// regimes (delivery_p50_us near 67 or near 107), a fresh process always
// in the second.
func moreSetUps(c *cluster, first float64, wl workload, pl *payloads, o runOpts, tmp string, start func(*cluster) error, stop func()) ([]float64, error) {
	took := []float64{first}
	c.close()
	for len(took) < o.setups {
		runtime.GC()
		again, secs, err := setUp(wl, pl, nil, tmp, start)
		if again != nil {
			stop()
			again.close()
		}
		if err != nil {
			return nil, err
		}
		took = append(took, secs)
	}
	return took, nil
}

// runLive is the closed-loop run of a live workload: set-up, warm-up,
// timed window, drain.
func runLive(wl workload, pl *payloads, o runOpts, tr *tracer, tmp string, res *result) (*cluster, uint64, error) {
	var l *loop
	start := func(c *cluster) error {
		l = newLoop(wl.w, wl.subs)
		for _, s := range c.subs {
			s.loop.Store(l)
		}
		go l.publish(c, pl, 0)
		// Set-up ends when the first event has reached every subscriber.
		select {
		case <-l.first:
			return nil
		case <-l.done:
			return l.pubErr
		case <-time.After(readyTimeout):
			l.drain(0)
			return fmt.Errorf("first event did not reach every subscriber within %v", readyTimeout)
		}
	}
	c, firstSetUp, err := setUp(wl, pl, tr, tmp, start)
	if err != nil {
		return c, 0, err
	}
	warmStart := time.Now()
	if _, err := l.watch(o.warmup); err != nil {
		return c, 0, err
	}
	warm := time.Since(warmStart)
	lag := startLagSampler(c)
	peers := c.livePeers()
	w := window{start: markStart(peers)}
	d0, p0, t0 := l.delivered.Load(), l.published.Load(), nowNS()
	slices, err := l.watch(o.window)
	d1, p1, t1 := l.delivered.Load(), l.published.Load(), nowNS()
	w.end = markEnd(peers)
	lagP50 := lag.stop()
	l.drain(o.drain)
	if err == nil {
		err = l.pubErr
	}
	if err != nil {
		return c, 0, err
	}
	w.deliveries, w.publishes = d1-d0, int64(p1-p0)
	published := l.published.Load()
	t := tallyOf(c.subs)
	res.settle(int64(published)*int64(wl.subs), t)
	res.TimedSeconds = w.seconds()

	// Latency pools every subscriber's in-window deliveries. The
	// catch-up analogue on a live workload is how long a subscriber
	// takes to receive catchupDepth consecutive events.
	var lat, blocks []float64
	for _, s := range c.subs {
		var in []sample
		for _, sm := range s.received() {
			if sm.at >= t0 && sm.at <= t1 {
				in = append(in, sm)
				lat = append(lat, float64(sm.lat)/1e3)
			}
		}
		for i := 0; i+catchupDepth <= len(in); i += catchupDepth {
			blocks = append(blocks, float64(in[i+catchupDepth-1].at-in[i].at)/1e6)
		}
	}
	res.Samples["delivery_us"] = len(lat)
	res.Samples["catchup_ms"] = len(blocks)
	// Rate and CPU cost are medians over the window's slices; the
	// whole-window means are kept as diagnostics.
	var rates, costs []float64
	for _, sl := range slices {
		rates = append(rates, float64(sl.deliveries)/sl.seconds)
		if sl.deliveries > 0 {
			costs = append(costs, float64(sl.cpu.Nanoseconds())/1e3/float64(sl.deliveries))
		}
	}
	res.Samples["slices"] = len(slices)
	res.SliceRates = append([]float64(nil), rates...)
	res.Diagnostic["deliveries_per_s_mean"] = metric{float64(w.deliveries) / w.seconds(), "1/s"}
	res.Diagnostic["cpu_us_per_delivery_mean"] = metric{w.cpuPerDelivery(), "us"}
	res.EndToEnd["allocs_per_delivery"] = metric{w.allocsPerDelivery(), "count"}
	res.EndToEnd["deliveries_per_s"] = metric{percentile(rates, 50), "1/s"}
	res.EndToEnd["cpu_us_per_delivery"] = metric{percentile(costs, 50), "us"}
	res.EndToEnd["delivery_p50_us"] = metric{percentile(lat, 50), "us"}
	res.EndToEnd["catchup_p50_ms"] = metric{percentile(blocks, 50), "ms"}
	res.Diagnostic["delivery_p90_us"] = metric{percentile(lat, 90), "us"}
	res.Diagnostic["delivery_p99_us"] = metric{percentile(lat, 99), "us"}
	if p := tailPercentile(len(lat)); p > 0 {
		res.Diagnostic["delivery_tail_us"] = metric{percentile(lat, p), "us"}
		res.Diagnostic["delivery_tail_pct"] = metric{p, "%"}
	}
	res.Diagnostic["publishes_per_s"] = metric{float64(w.publishes) / w.seconds(), "1/s"}
	res.Diagnostic["warmup_s"] = metric{warm.Seconds(), "s"}
	if !o.traced {
		res.PerLayer = w.layerCounters(t.reordered, lagP50)
		setups, err := moreSetUps(c, firstSetUp, wl, pl, o, tmp, start, func() { l.drain(o.drain) })
		if err != nil {
			return c, 0, err
		}
		res.Samples["setup_s"] = len(setups)
		res.EndToEnd["setup_s"] = metric{percentile(setups, 50), "s"}
	}
	return c, published, nil
}

// runCatchup is the catch-up workload: set-up publishes wl.depth events
// to one live subscriber through a durable rendezvous; then late joiners
// come one after another, each a fresh platform that subscribes, must
// receive all retained events by replay, and leaves. Once the last
// joiner has left — the retained depth no longer matters — the publisher
// runs the closed loop for as long as a warm-up, which is where this
// workload's live latency comes from: the seeding burst, 0.1 s long and
// straight after boot, gave a p50 that swung 1.6–2.5 ms between runs.
func runCatchup(wl workload, pl *payloads, o runOpts, tr *tracer, tmp string, res *result) (*cluster, error) {
	start := func(c *cluster) error {
		l := newLoop(wl.w, wl.subs)
		c.subs[0].loop.Store(l)
		go l.publish(c, pl, uint64(wl.depth))
		<-l.done
		l.drain(o.drain)
		if l.pubErr != nil {
			return l.pubErr
		}
		t := tallyOf(c.subs)
		if t.arrived != int64(wl.depth) {
			return fmt.Errorf("seeding: %d of %d events reached the live subscriber", t.arrived, wl.depth)
		}
		return nil
	}
	c, firstSetUp, err := setUp(wl, pl, tr, tmp, start)
	if err != nil {
		return c, err
	}

	peers := c.livePeers()
	w := window{start: markStart(peers), departed: newCounters()}
	// One sample per joiner, so the medians shrug off a joiner that ran
	// while the host was busy elsewhere.
	var catchups []float64  // Subscribe call → last retained event, ms
	var streaming []float64 // first → last replayed delivery, ms
	var costs []float64     // process CPU from its boot to its close ÷ its deliveries, us
	var t tally
	joiners := 0
	for ; joiners < o.minJoiners || time.Since(w.start.at) < o.window; joiners++ {
		cpu0 := processCPU()
		j, err := c.bootJoiner(fmt.Sprintf("join%d", joiners), pl, wl.depth, o.joinTimeout)
		if err != nil {
			return c, err
		}
		jt := tallyOf([]*subscriber{j})
		t.add(jt)
		w.deliveries += jt.arrived
		if got := j.received(); len(got) == wl.depth {
			catchups = append(catchups, float64(got[wl.depth-1].at-j.subscribeAt)/1e6)
			streaming = append(streaming, float64(got[wl.depth-1].at-got[0].at)/1e6)
		}
		w.departed.add(j.p.Stats())
		c.closePeer(j.peer)
		if jt.arrived > 0 {
			costs = append(costs, float64((processCPU()-cpu0).Nanoseconds())/1e3/float64(jt.arrived))
		}
	}
	w.end = markEnd(peers)

	l := newLoop(wl.w, wl.subs)
	l.published.Store(uint64(wl.depth)) // sequence numbers continue after the seeds
	c.subs[0].loop.Store(l)
	go l.publish(c, pl, 0)
	_, err = l.watch(o.warmup)
	l.drain(o.drain)
	if err == nil {
		err = l.pubErr
	}
	if err != nil {
		return c, err
	}
	var lat []float64
	for _, sm := range c.subs[0].received()[wl.depth:] {
		lat = append(lat, float64(sm.lat)/1e3)
	}
	t.add(tallyOf(c.subs))
	res.settle(int64(l.published.Load())+int64(wl.depth)*int64(joiners), t)
	res.TimedSeconds = w.seconds()
	if !o.traced {
		res.PerLayer = w.layerCounters(t.reordered, 0)
		setups, err := moreSetUps(c, firstSetUp, wl, pl, o, tmp, start, func() {})
		if err != nil {
			return c, err
		}
		res.Samples["setup_s"] = len(setups)
		res.EndToEnd["setup_s"] = metric{percentile(setups, 50), "s"}
	}
	res.Samples["delivery_us"] = len(lat)
	res.Samples["catchup_ms"] = len(catchups)
	res.Diagnostic["cpu_us_per_delivery_mean"] = metric{w.cpuPerDelivery(), "us"}
	res.EndToEnd["allocs_per_delivery"] = metric{w.allocsPerDelivery(), "count"}
	res.EndToEnd["cpu_us_per_delivery"] = metric{percentile(costs, 50), "us"}
	if ms := percentile(streaming, 50); ms > 0 {
		res.EndToEnd["deliveries_per_s"] = metric{float64(wl.depth) / ms * 1e3, "1/s"}
		res.Diagnostic["catchup_streaming_ms"] = metric{ms, "ms"}
	}
	res.EndToEnd["delivery_p50_us"] = metric{percentile(lat, 50), "us"}
	res.EndToEnd["catchup_p50_ms"] = metric{percentile(catchups, 50), "ms"}
	res.Diagnostic["delivery_p90_us"] = metric{percentile(lat, 90), "us"}
	res.Diagnostic["catchup_p90_ms"] = metric{percentile(catchups, 90), "ms"}
	res.Diagnostic["joiners"] = metric{float64(joiners), "count"}
	res.Diagnostic["joiners_per_s"] = metric{float64(joiners) / w.seconds(), "1/s"}
	return c, nil
}

// bootJoiner starts a late joiner and returns once it has received
// depth events or the timeout has passed.
func (c *cluster) bootJoiner(name string, pl *payloads, depth int, timeout time.Duration) (*subscriber, error) {
	s := &subscriber{pl: pl, target: depth, reached: make(chan struct{})}
	var err error
	if s.peer, err = c.bootEdge("joiner", name, s.observe); err != nil {
		return nil, err
	}
	if err := s.subscribe(); err != nil {
		return nil, err
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-s.reached:
	case <-timer.C:
	}
	return s, nil
}

// lagSampler reads, every 50 ms, how many records the standby replica's
// copy of the event topic is behind the active replica's log.
type lagSampler struct {
	quit chan struct{}
	done chan struct{}
	lags []float64
}

func startLagSampler(c *cluster) *lagSampler {
	if len(c.rdvs) < 2 {
		return nil
	}
	s := &lagSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-tick.C:
				s.lags = append(s.lags, replicaLag(c))
			}
		}
	}()
	return s
}

// replicaLag compares the busiest topic of the active replica (the event
// group; the only other topic carries discovery chatter) with the
// standby's copy of it.
func replicaLag(c *cluster) float64 {
	active := c.rdvs[0].p.Inspect().EventLog
	sort.Slice(active, func(i, j int) bool { return active[i].LastSeq > active[j].LastSeq })
	if len(active) == 0 {
		return 0
	}
	for _, e := range c.rdvs[1].p.Inspect().EventLog {
		if _, topic, ok := replica.ParseKey(e.Topic); ok && topic == active[0].Topic {
			return float64(active[0].LastSeq) - float64(e.LastSeq)
		}
	}
	return float64(active[0].LastSeq)
}

func (s *lagSampler) stop() float64 {
	if s == nil {
		return 0
	}
	close(s.quit)
	<-s.done
	return percentile(s.lags, 50)
}
