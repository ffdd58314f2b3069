// Command benchjson runs the repo's benchmark suite and emits the
// results as machine-readable JSON, so the perf trajectory stays
// comparable across PRs without anyone hand-transcribing `go test
// -bench` output into tables. Typical use, from the repo root:
//
//	go run ./cmd/benchjson -out BENCH_15.json
//
// Each benchmark maps to its measured metrics (ns/op, B/op, allocs/op,
// plus any custom b.ReportMetric units such as events/sec). Multiple
// -count runs of the same benchmark are averaged. The GOMAXPROCS suffix
// (`-8`) is stripped from names so files diff cleanly across machines;
// the procs value is recorded once in the metadata instead.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"github.com/tps-p2p/tps/internal/obs"
)

type run struct {
	sums   map[string]float64
	counts map[string]int
}

func main() {
	bench := flag.String("bench", "LocalPublishDeliver|Fig18InvocationTime|SeenObserve|MessageCodec|EventLogAppend", "benchmark regex passed to go test -bench")
	benchtime := flag.String("benchtime", "1s", "go test -benchtime value")
	count := flag.Int("count", 1, "go test -count value; results are averaged")
	pkg := flag.String("pkg", ".", "package to benchmark")
	out := flag.String("out", "BENCH_15.json", `output path, or "-" for stdout`)
	flag.Parse()

	args := []string{
		"test", "-run", "xxx", "-bench", *bench, "-benchmem",
		"-benchtime", *benchtime, "-count", strconv.Itoa(*count), *pkg,
	}
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		fatal(err)
	}
	if err := cmd.Start(); err != nil {
		fatal(err)
	}

	results := make(map[string]*run)
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(os.Stderr, line) // keep the human-readable stream visible
		parseLine(line, results)
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		fatal(fmt.Errorf("go test: %w", err))
	}
	if len(results) == 0 {
		fatal(fmt.Errorf("no benchmark lines matched %q", *bench))
	}

	doc := struct {
		GeneratedBy string `json:"generated_by"`
		GoVersion   string `json:"go_version"`
		GOMAXPROCS  int    `json:"gomaxprocs"`
		// ObsSchemaVersion records which runtime stats schema
		// (internal/obs, the /stats endpoint) this build carries, so a
		// benchmark file can be matched to the introspection format of
		// the binary that produced it.
		ObsSchemaVersion int                           `json:"obs_schema_version"`
		Bench            string                        `json:"bench"`
		Benchtime        string                        `json:"benchtime"`
		Count            int                           `json:"count"`
		Benchmarks       map[string]map[string]float64 `json:"benchmarks"`
	}{
		GeneratedBy:      "cmd/benchjson",
		GoVersion:        runtime.Version(),
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		ObsSchemaVersion: obs.SchemaVersion,
		Bench:            *bench,
		Benchtime:        *benchtime,
		Count:            *count,
		Benchmarks:       make(map[string]map[string]float64, len(results)),
	}
	for name, r := range results {
		metrics := make(map[string]float64, len(r.sums))
		for unit, sum := range r.sums {
			metrics[unit] = round3(sum / float64(r.counts[unit]))
		}
		doc.Benchmarks[name] = metrics
	}

	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if *out == "-" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatal(err)
	}
	names := make([]string, 0, len(doc.Benchmarks))
	for n := range doc.Benchmarks {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s (%s)\n", len(names), *out, strings.Join(names, ", "))
}

// parseLine folds one `go test -bench` result line into results. The
// format is: name, iteration count, then value/unit pairs — e.g.
// `BenchmarkFoo-8  1000  1234 ns/op  56 B/op  7 allocs/op`.
func parseLine(line string, results map[string]*run) {
	if !strings.HasPrefix(line, "Benchmark") {
		return
	}
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i] // strip the GOMAXPROCS suffix
		}
	}
	if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
		return // not an iteration count: some other Benchmark-prefixed line
	}
	r := results[name]
	if r == nil {
		r = &run{sums: make(map[string]float64), counts: make(map[string]int)}
		results[name] = r
	}
	for i := 2; i+1 < len(fields); i += 2 {
		value, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		unit := fields[i+1]
		r.sums[unit] += value
		r.counts[unit]++
	}
}

func round3(f float64) float64 {
	return float64(int64(f*1000+0.5)) / 1000
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
