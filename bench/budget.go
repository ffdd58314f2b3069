package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// budgetRow prices one layer: how many calls a delivery makes (a counter
// of the end-to-end run) times what a call costs (the layer replay).
type budgetRow struct {
	layer, calls, cost string
}

// The tcpnet row uses the CPU a frame costs the whole process when
// tcpnet runs alone — enqueue, flusher, write, read and reader wake-up —
// so tcpnet.send_ns is inside it and has no row of its own. Small
// control frames are priced like event frames, which overstates the
// encode, unmarshal and tcpnet rows a little on workloads with much
// discovery chatter per delivery.
var budgetRows = []budgetRow{
	{"codec.encode", "calls.codec_encode_per_delivery", "codec.encode_ns"},
	{"codec.decode", "calls.codec_decode_per_delivery", "codec.decode_ns"},
	{"endpoint.encode_frame", "calls.endpoint_encode_per_delivery", "endpoint.encode_frame_ns"},
	{"message.unmarshal", "calls.unmarshal_per_delivery", "message.unmarshal_ns"},
	{"tcpnet (enqueue, flush, write, read)", "tcpnet.frames_per_delivery", "tcpnet.loop_cpu_ns_per_frame"},
	{"seen.observe", "seen.observed_per_delivery", "seen.observe_ns"},
	{"eventlog.append", "calls.eventlog_append_per_delivery", "eventlog.append_ns"},
	{"eventlog.read", "calls.eventlog_read_per_delivery", "eventlog.read_ns_per_entry"},
	{"replica.apply", "calls.replica_apply_per_delivery", "replica.apply_ns"},
}

// writeBudget sets Σ(calls per delivery × replay ns per call) against
// cpu_us_per_delivery, writes the table to budget_<workload>.md and
// returns the unexplained share in percent. The remainder is a finding,
// not a failure: it is what no layer function accounts for — goroutine
// hand-offs, scheduling, GC, rendezvous bookkeeping, the harness.
func writeBudget(dir string, r *result) (float64, error) {
	cpu := r.EndToEnd["cpu_us_per_delivery"].Value
	var b strings.Builder
	fmt.Fprintf(&b, "# CPU budget: %s\n\n", r.Workload)
	fmt.Fprintf(&b, "Generated by `go run ./bench -workload %s -trace 1`; do not edit.\n", r.Workload)
	fmt.Fprintf(&b, "Commit %s, %s, GOMAXPROCS %d of %d CPUs, loopback TCP, seed %d.\n\n",
		r.Env.Commit, r.Env.Go, r.Env.GOMAXPROCS, r.Env.NProc, r.Seed)
	b.WriteString("| layer | calls per delivery | ns per call | us per delivery | share of CPU |\n|---|---:|---:|---:|---:|\n")
	var explained float64
	for _, row := range budgetRows {
		calls, cost := r.PerLayer[row.calls].Value, r.PerLayer[row.cost].Value
		us := calls * cost / 1e3
		explained += us
		fmt.Fprintf(&b, "| %s | %.3f | %.0f | %.2f | %.1f %% |\n", row.layer, calls, cost, us, share(us, cpu))
	}
	unexplained := share(cpu-explained, cpu)
	fmt.Fprintf(&b, "| **explained** | | | %.2f | %.1f %% |\n", explained, share(explained, cpu))
	fmt.Fprintf(&b, "| **unexplained** (`process.unexplained_cpu_pct`) | | | %.2f | %.1f %% |\n", cpu-explained, unexplained)
	fmt.Fprintf(&b, "| **cpu_us_per_delivery** | | | %.2f | 100 %% |\n", cpu)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	return unexplained, os.WriteFile(filepath.Join(dir, "budget_"+r.Workload+".md"), []byte(b.String()), 0o644)
}

func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole * 100
}
