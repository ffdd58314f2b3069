package main

import (
	"encoding/json"
	"sort"
)

// metricDef names one metric of the benchmark. bound is the share of the
// baseline by which an end-to-end metric may worsen before it counts as
// a regression; per-layer metrics have none. README.md says which
// end-to-end metric each layer metric is expected to move, and where.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd are the gated metrics. Every workload reports all six: the
// harness wants no metric omitted, so the two that belong to one kind of
// workload have an analogue on the other (see README.md).
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "deliveries_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "delivery_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "cpu_us_per_delivery", unit: "us", better: "lower", bound: 0.25},
	{name: "allocs_per_delivery", unit: "count", better: "lower", bound: 0.03},
	{name: "catchup_p50_ms", unit: "ms", better: "lower", bound: 0.25},
}

// perLayer are the metrics of single layers, in three groups: the layer
// replay (what one call costs), the counters of the end-to-end run (how
// many calls, how long work waited) and the traced run (self times).
var perLayer = []metricDef{
	// Layer replay.
	{name: "codec.encode_ns", unit: "ns", better: "lower"},
	{name: "codec.encode_allocs", unit: "count", better: "lower"},
	{name: "codec.decode_ns", unit: "ns", better: "lower"},
	{name: "codec.decode_allocs", unit: "count", better: "lower"},
	{name: "message.marshal_ns", unit: "ns", better: "lower"},
	{name: "message.unmarshal_ns", unit: "ns", better: "lower"},
	{name: "message.unmarshal_allocs", unit: "count", better: "lower"},
	{name: "message.dup_ns", unit: "ns", better: "lower"},
	{name: "endpoint.encode_frame_ns", unit: "ns", better: "lower"},
	{name: "endpoint.encode_frame_allocs", unit: "count", better: "lower"},
	{name: "tcpnet.send_ns", unit: "ns", better: "lower"},
	{name: "tcpnet.loop_frames_per_s", unit: "1/s", better: "higher"},
	{name: "tcpnet.loop_cpu_ns_per_frame", unit: "ns", better: "lower"},
	{name: "tcpnet.loop_rtt_p50_us", unit: "us", better: "lower"},
	{name: "seen.observe_ns", unit: "ns", better: "lower"},
	{name: "seen.observe_dup_ns", unit: "ns", better: "lower"},
	{name: "eventlog.append_ns", unit: "ns", better: "lower"},
	{name: "eventlog.read_ns_per_entry", unit: "ns", better: "lower"},
	{name: "replica.apply_ns", unit: "ns", better: "lower"},
	{name: "replica.digest_ns", unit: "ns", better: "lower"},

	// Counters read from Platform.Stats()/Inspect() over the timed window.
	{name: "tcpnet.frames_per_delivery", unit: "count", better: "lower"},
	{name: "endpoint.bytes_out_per_delivery", unit: "B", better: "lower"},
	{name: "tcpnet.dropped", unit: "count", better: "lower"},
	{name: "tcpnet.requeued", unit: "count", better: "lower"},
	{name: "tcpnet.queue_wait_p50_us", unit: "us", better: "lower"},
	{name: "tcpnet.queue_wait_p99_us", unit: "us", better: "lower"},
	{name: "endpoint.encode_p50_us", unit: "us", better: "lower"},
	{name: "engine.publish_fanout_p50_us", unit: "us", better: "lower"},
	{name: "engine.dispatch_p50_us", unit: "us", better: "lower"},
	{name: "engine.duplicates", unit: "count", better: "lower"},
	{name: "engine.reordered", unit: "count", better: "lower"},
	{name: "seen.observed_per_delivery", unit: "count", better: "lower"},
	{name: "seen.duplicates_per_delivery", unit: "count", better: "lower"},
	{name: "rendezvous.propagated_per_publish", unit: "count", better: "lower"},
	{name: "rendezvous.replay_requests", unit: "count", better: "lower"},
	{name: "rendezvous.replay_served", unit: "count", better: "lower"},
	{name: "rendezvous.replay_gaps", unit: "count", better: "lower"},
	{name: "rendezvous.sync_digests", unit: "count", better: "lower"},
	{name: "rendezvous.sync_pulls", unit: "count", better: "lower"},
	{name: "rendezvous.sync_records", unit: "count", better: "lower"},
	{name: "rendezvous.send_failures", unit: "count", better: "lower"},
	{name: "eventlog.appended_per_publish", unit: "count", better: "lower"},
	{name: "eventlog.truncated", unit: "count", better: "lower"},
	{name: "eventlog.bytes_retained", unit: "B", better: "lower"},
	{name: "replica.lag_records_p50", unit: "count", better: "lower"},
	{name: "process.gc_cycles", unit: "count", better: "lower"},
	{name: "process.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "process.alloc_bytes_per_delivery", unit: "B", better: "lower"},
	{name: "process.rss_peak_mb", unit: "MB", better: "lower"},
	{name: "calls.codec_encode_per_delivery", unit: "count", better: "lower"},
	{name: "calls.codec_decode_per_delivery", unit: "count", better: "lower"},
	{name: "calls.endpoint_encode_per_delivery", unit: "count", better: "lower"},
	{name: "calls.unmarshal_per_delivery", unit: "count", better: "lower"},
	{name: "calls.eventlog_append_per_delivery", unit: "count", better: "lower"},
	{name: "calls.eventlog_read_per_delivery", unit: "count", better: "lower"},
	{name: "calls.replica_apply_per_delivery", unit: "count", better: "lower"},

	// Traced run and budget.
	{name: "tps.publish_self_p50_us", unit: "us", better: "lower"},
	{name: "rendezvous.recv_self_p50_us", unit: "us", better: "lower"},
	{name: "rendezvous.sends_per_recv", unit: "count", better: "lower"},
	{name: "engine.recv_self_p50_us", unit: "us", better: "lower"},
	{name: "tcpnet.transit_p50_us", unit: "us", better: "lower"},
	{name: "trace.publish_to_forward_p50_us", unit: "us", better: "lower"},
	{name: "trace.forward_to_deliver_p50_us", unit: "us", better: "lower"},
	{name: "obs.tracing_overhead_pct", unit: "%", better: "lower"},
	{name: "process.unexplained_cpu_pct", unit: "%", better: "lower"},
}

func defByName(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// benchmarkJSON renders the catalogue in BENCHMARK.json's format; the
// smoke test holds the checked-in file to it.
func benchmarkJSON(runSeconds int) ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"go", "run", "./bench"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.name, d.unit, d.better})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	return append(data, '\n'), err
}

// sortedNames lists a metric map's names in catalogue order, names the
// catalogue does not know last.
func sortedNames(m map[string]metric, defs []metricDef) []string {
	names := make([]string, 0, len(m))
	for _, d := range defs {
		if _, ok := m[d.name]; ok {
			names = append(names, d.name)
		}
	}
	known := len(names)
	for k := range m {
		if _, ok := defByName(defs, k); !ok {
			names = append(names, k)
		}
	}
	sort.Strings(names[known:])
	return names
}
