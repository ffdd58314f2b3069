package main

import (
	"math"
	"runtime"
	"sort"
	"time"

	tps "github.com/tps-p2p/tps"
	"github.com/tps-p2p/tps/internal/obs/hist"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// percentile returns the p-th percentile (nearest rank) of vals, 0 when
// there are none. It sorts vals in place.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	rank := int(math.Ceil(p / 100 * float64(len(vals))))
	return vals[min(max(rank, 1), len(vals))-1]
}

// tailPercentile is the highest of 99.99/99.9/99/90 with at least ten
// samples beyond it, 0 when even p90 has fewer.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.99, 99.9, 99, 90} {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 0
}

// counters is the sum over peers of what Platform.Stats() reports,
// keyed "<subsystem>.<name>".
type counters struct {
	count map[string]int64
	gauge map[string]float64
	hists map[string]hist.Snapshot
}

func newCounters() counters {
	return counters{map[string]int64{}, map[string]float64{}, map[string]hist.Snapshot{}}
}

func (c counters) add(v tps.StatsView) {
	for _, s := range v.Subsystems {
		for k, n := range s.Counters {
			c.count[s.Name+"."+k] += n
		}
		for k, g := range s.Gauges {
			c.gauge[s.Name+"."+k] += g
		}
		for k, h := range s.Hists {
			c.hists[s.Name+"."+k] = hist.Merge(c.hists[s.Name+"."+k], h)
		}
	}
}

func collect(peers []*peer) counters {
	c := newCounters()
	for _, pr := range peers {
		c.add(pr.p.Stats())
	}
	return c
}

// since returns what was counted after prev. Gauges are levels and stay
// as they are.
func (c counters) since(prev counters) counters {
	out := newCounters()
	for k, n := range c.count {
		out.count[k] = n - prev.count[k]
	}
	for k, g := range c.gauge {
		out.gauge[k] = g
	}
	for k, h := range c.hists {
		out.hists[k] = hist.Delta(h, prev.hists[k])
	}
	return out
}

// mark is the process and program state at one edge of the timed window.
type mark struct {
	at         time.Time
	cpu        time.Duration // user + system
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
	stats      counters
}

// markStart reads the program's counters first and the process last, so
// the reading itself falls outside the window; markEnd mirrors it.
func markStart(peers []*peer) mark {
	m := mark{stats: collect(peers)}
	ms := new(runtime.MemStats)
	runtime.ReadMemStats(ms)
	m.cpu = processCPU()
	m.at = time.Now()
	m.setMem(ms)
	return m
}

func markEnd(peers []*peer) mark {
	m := mark{at: time.Now(), cpu: processCPU()}
	ms := new(runtime.MemStats)
	runtime.ReadMemStats(ms)
	m.setMem(ms)
	m.stats = collect(peers)
	return m
}

func (m *mark) setMem(ms *runtime.MemStats) {
	m.mallocs, m.allocBytes = ms.Mallocs, ms.TotalAlloc
	m.gcCycles, m.gcPause = ms.NumGC, time.Duration(ms.PauseTotalNs)
}

// window is a measured interval: the two marks, what was delivered and
// published between them, and counters of peers that left in between
// (late joiners close before the window does).
type window struct {
	start, end mark
	deliveries int64
	publishes  int64
	departed   counters
}

func (w window) seconds() float64 { return w.end.at.Sub(w.start.at).Seconds() }

// per divides a count by the window's deliveries.
func (w window) per(n float64) float64 { return n / float64(max(w.deliveries, 1)) }

// cpuPerDelivery is the whole window's process CPU per delivery, in
// microseconds; allocsPerDelivery its heap allocations per delivery.
func (w window) cpuPerDelivery() float64 {
	return w.per(float64((w.end.cpu - w.start.cpu).Nanoseconds()) / 1e3)
}

func (w window) allocsPerDelivery() float64 {
	return w.per(float64(w.end.mallocs - w.start.mallocs))
}

// layerCounters turns the window's Stats() deltas into the per-layer
// counter metrics: per delivery or per publish, so runs of different
// length compare. Nothing is published inside the catch-up window, so
// there the two per-publish ratios are plain counts.
func (w window) layerCounters(reordered int64, lagP50 float64) map[string]metric {
	d := w.end.stats.since(w.start.stats)
	for k, n := range w.departed.count {
		d.count[k] += n
	}
	for k, h := range w.departed.hists {
		d.hists[k] = hist.Merge(d.hists[k], h)
	}
	n := func(key string) float64 { return float64(d.count[key]) }
	perPub := func(key string) float64 { return n(key) / float64(max(w.publishes, 1)) }
	q := func(key string, p float64) float64 { return d.hists[key].Quantile(p) }
	return map[string]metric{
		"tcpnet.frames_per_delivery":         {w.per(n("tcpnet.sent")), "count"},
		"tcpnet.dropped":                     {n("tcpnet.dropped"), "count"},
		"tcpnet.requeued":                    {n("tcpnet.requeued"), "count"},
		"tcpnet.queue_wait_p50_us":           {q("tcpnet.queue_wait_us", 0.5), "us"},
		"tcpnet.queue_wait_p99_us":           {q("tcpnet.queue_wait_us", 0.99), "us"},
		"endpoint.bytes_out_per_delivery":    {w.per(n("endpoint.bytes_out")), "B"},
		"endpoint.encode_p50_us":             {q("endpoint.encode_us", 0.5), "us"},
		"engine.publish_fanout_p50_us":       {q("engine.publish_fanout_us", 0.5), "us"},
		"engine.dispatch_p50_us":             {q("engine.dispatch_us", 0.5), "us"},
		"engine.duplicates":                  {n("engine.duplicates"), "count"},
		"engine.reordered":                   {float64(reordered), "count"},
		"seen.observed_per_delivery":         {w.per(n("seen.observed")), "count"},
		"seen.duplicates_per_delivery":       {w.per(n("seen.duplicates")), "count"},
		"rendezvous.propagated_per_publish":  {perPub("rendezvous.propagated"), "count"},
		"rendezvous.replay_requests":         {n("rendezvous.replay_requests"), "count"},
		"rendezvous.replay_served":           {n("rendezvous.replay_served"), "count"},
		"rendezvous.replay_gaps":             {n("rendezvous.replay_gaps"), "count"},
		"rendezvous.sync_digests":            {n("rendezvous.sync_digests"), "count"},
		"rendezvous.sync_pulls":              {n("rendezvous.sync_pulls"), "count"},
		"rendezvous.sync_records":            {n("rendezvous.sync_records"), "count"},
		"rendezvous.send_failures":           {n("rendezvous.send_failures"), "count"},
		"eventlog.appended_per_publish":      {perPub("eventlog.appended"), "count"},
		"eventlog.truncated":                 {n("eventlog.truncated"), "count"},
		"eventlog.bytes_retained":            {d.gauge["eventlog.bytes"], "B"},
		"replica.lag_records_p50":            {lagP50, "count"},
		"process.gc_cycles":                  {float64(w.end.gcCycles - w.start.gcCycles), "count"},
		"process.gc_pause_ms":                {float64((w.end.gcPause - w.start.gcPause).Microseconds()) / 1e3, "ms"},
		"process.alloc_bytes_per_delivery":   {w.per(float64(w.end.allocBytes - w.start.allocBytes)), "B"},
		"process.rss_peak_mb":                {peakRSSMB(), "MB"},
		"calls.codec_encode_per_delivery":    {w.per(n("engine.published")), "count"},
		"calls.codec_decode_per_delivery":    {w.per(n("engine.delivered") - n("engine.published")), "count"},
		"calls.endpoint_encode_per_delivery": {w.per(float64(d.hists["endpoint.encode_us"].Count)), "count"},
		"calls.unmarshal_per_delivery":       {w.per(n("endpoint.msgs_in")), "count"},
		"calls.eventlog_append_per_delivery": {w.per(n("eventlog.appended")), "count"},
		"calls.eventlog_read_per_delivery":   {w.per(n("eventlog.replayed")), "count"},
		"calls.replica_apply_per_delivery":   {w.per(n("rendezvous.sync_applied")), "count"},
	}
}
