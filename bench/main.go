// Command bench is the loopback-TCP benchmark of record for this
// repository: five workloads over the shipped path (publisher → tcpnet →
// rendezvous → tcpnet → subscribers), six end-to-end metrics, and a
// per-layer budget measured from outside the program. README.md is the
// catalogue; BENCHMARK.json at the repository root is the contract.
//
// Run it from the repository root:
//
//	go run ./bench                                   every workload, end to end
//	go run ./bench -trace 1                          plus per-layer metrics and budgets
//	go run ./bench -workload fanout8_2k -seed 7      one workload
//	go run ./bench -layers                           layer replay only, both event sizes
//	go run ./bench -compare bench/baseline bench/out compare two result sets
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"
)

// runSeconds is the timed window of the benchmark of record, the same on
// every workload; BENCHMARK.json's run_seconds repeats it.
const runSeconds = 12

// layerTime is the least time the layer replay spends per function.
const layerTime = time.Second

// env is where and on what a result was measured. Every result file
// carries it.
type env struct {
	Commit     string `json:"git_commit"`
	Go         string `json:"go_version"`
	Platform   string `json:"platform"`
	Kernel     string `json:"kernel"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Link is always "loopback": all peers share one host, so nothing
	// here is a statement about link rates or wire latency.
	Link string `json:"link"`
}

const commitEnv = "TPS_BENCH_COMMIT"

var readEnv = sync.OnceValue(func() env {
	e := env{
		Commit: os.Getenv(commitEnv), Go: runtime.Version(), Platform: runtime.GOOS + "/" + runtime.GOARCH,
		Kernel: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Link: "loopback",
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(data))
	}
	if e.Commit == "" {
		e.Commit = gitCommit()
	}
	return e
})

// gitCommit is the commit the binary was built from, or the checkout's
// HEAD, or "unknown" outside a git checkout.
func gitCommit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if out, err := exec.CommandContext(ctx, "git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	outDir   string
	// child-only
	child  string
	setups int
	size   string
}

func main() {
	var cfg config
	var layers, cmp, catalogue bool
	flag.StringVar(&cfg.workload, "workload", "", "run one workload (default: all five)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the inputs are made from")
	flag.IntVar(&cfg.seconds, "seconds", runSeconds, "timed window in seconds")
	flag.IntVar(&cfg.trace, "trace", 0, "1: report per-layer metrics (counters, traced run, layer replay, budget) instead of end-to-end ones")
	flag.StringVar(&cfg.outDir, "out", filepath.Join("bench", "out"), "directory for result, trace and budget files")
	flag.BoolVar(&layers, "layers", false, "layer replay only, for both event sizes")
	flag.BoolVar(&cmp, "compare", false, "compare two result files or directories: -compare a b")
	flag.BoolVar(&catalogue, "catalogue", false, "print BENCHMARK.json as the catalogue in this package defines it")
	flag.StringVar(&cfg.child, "child", "", "internal: run one phase in this process")
	flag.IntVar(&cfg.setups, "setups", 3, "internal: how many times a child sets the cluster up")
	flag.StringVar(&cfg.size, "size", "", "internal: event size of a layers child")
	flag.Parse()

	var err error
	switch {
	case cfg.child != "":
		err = runChild(cfg)
	case catalogue:
		var data []byte
		if data, err = benchmarkJSON(runSeconds); err == nil {
			_, err = os.Stdout.Write(data)
		}
	case cmp:
		if flag.NArg() != 2 {
			err = errors.New("usage: -compare a.json b.json (files or directories)")
			break
		}
		var ok bool
		if ok, err = compare(os.Stdout, flag.Arg(0), flag.Arg(1)); err == nil && !ok {
			err = errors.New("b is outside a bound, or its failed share grew")
		}
	case layers:
		err = runLayersOnly(cfg)
	default:
		err = runParent(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runChild is one phase in a process of its own, so that CPU time,
// allocation counts and heap belong to that phase alone. It prints its
// result as one JSON line on standard output.
func runChild(cfg config) error {
	// Pinned and recorded: the sizing box has 2 CPUs, and more than 4
	// would change what the closed loop contends for.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	var res *result
	switch cfg.child {
	case "run":
		wl, ok := workloadByName(cfg.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", cfg.workload)
		}
		o := defaultOpts(cfg.seed, cfg.seconds, cfg.outDir)
		o.setups, o.traced = cfg.setups, cfg.trace == 1
		var err error
		if res, err = runWorkload(wl, o); err != nil {
			return err
		}
	case "layers":
		tmp := filepath.Join(cfg.outDir, "tmp")
		if err := os.MkdirAll(tmp, 0o755); err != nil {
			return err
		}
		m, err := replayLayers(cfg.seed, cfg.size, layerTime, tmp)
		if err != nil {
			return err
		}
		res = &result{Env: readEnv(), Seed: cfg.seed, PerLayer: m}
	default:
		return fmt.Errorf("unknown child phase %q", cfg.child)
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// spawn re-executes this binary for one phase and decodes its result.
// The child is waited for, and killed first if it outlives the limit.
func spawn(cfg config, limit time.Duration, args ...string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	args = append(args, "-seed", strconv.FormatInt(cfg.seed, 10), "-seconds", strconv.Itoa(cfg.seconds), "-out", cfg.outDir)
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), commitEnv+"="+readEnv().Commit)
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = 5 * time.Second
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("child %v: %w", args, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("child %v: %w", args, err)
	}
	return &res, nil
}

// measure runs one workload. End to end it is one untraced child with
// three set-ups. With layers it adds a traced child and the layer
// replay, merges their per-layer metrics with the untraced run's
// counters and writes the budget.
func measure(wl workload, cfg config, layers map[string]*result) (*result, error) {
	limit := time.Duration(cfg.seconds)*time.Second + 90*time.Second
	setups := "3"
	if cfg.trace == 1 && cfg.workload != "" {
		setups = "1" // the harness reads only per-layer metrics from this run
	}
	res, err := spawn(cfg, limit, "-child", "run", "-workload", wl.name, "-setups", setups)
	if err != nil {
		return nil, err
	}
	if cfg.trace == 1 {
		traced, err := spawn(cfg, limit, "-child", "run", "-workload", wl.name, "-trace", "1")
		if err != nil {
			return nil, err
		}
		if layers[wl.size] == nil {
			if layers[wl.size], err = spawn(cfg, limit, "-child", "layers", "-size", wl.size); err != nil {
				return nil, err
			}
		}
		if err := mergeLayers(res, traced, layers[wl.size], cfg.outDir); err != nil {
			return nil, err
		}
	} else {
		res.PerLayer = nil // counters belong to the per-layer report
	}
	return res, writeJSON(filepath.Join(cfg.outDir, wl.name+".json"), res)
}

// mergeLayers completes an untraced run's per-layer report (its own
// counters) with the traced run and the layer replay, derives the
// tracing overhead from the two runs' delivery rates and writes the
// budget.
func mergeLayers(res, traced, layers *result, outDir string) error {
	for _, part := range []*result{traced, layers} {
		for k, m := range part.PerLayer {
			res.PerLayer[k] = m
		}
	}
	res.Attempted += traced.Attempted
	res.Failed += traced.Failed
	res.Correct = res.Correct && traced.Correct
	base, with := res.EndToEnd["deliveries_per_s"].Value, traced.EndToEnd["deliveries_per_s"].Value
	res.PerLayer["obs.tracing_overhead_pct"] = metric{share(base-with, base), "%"}
	unexplained, err := writeBudget(outDir, res)
	res.PerLayer["process.unexplained_cpu_pct"] = metric{unexplained, "%"}
	return err
}

func runParent(cfg config) error {
	run := workloads
	if cfg.workload != "" {
		wl, ok := workloadByName(cfg.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", cfg.workload)
		}
		run = []workload{wl}
	}
	defer os.RemoveAll(filepath.Join(cfg.outDir, "tmp"))
	layers := map[string]*result{}
	var last *result
	allCorrect := true
	for _, wl := range run {
		res, err := measure(wl, cfg, layers)
		if err != nil {
			return err
		}
		printResult(res)
		allCorrect = allCorrect && res.Correct
		last = res
	}
	if cfg.workload != "" {
		// The harness reads the last line: end-to-end metrics, or with
		// -trace 1 the per-layer ones.
		metrics := last.EndToEnd
		if cfg.trace == 1 {
			metrics = last.PerLayer
		}
		line, err := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int64             `json:"attempted"`
			Failed    int64             `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{last.Correct, last.Attempted, last.Failed, metrics})
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	if !allCorrect {
		return errors.New("a delivery was duplicated or corrupt: correctness bug, not a slow run")
	}
	return nil
}

func runLayersOnly(cfg config) error {
	for _, size := range []string{"2k", "64b"} {
		res, err := spawn(cfg, 3*time.Minute, "-child", "layers", "-size", size)
		if err != nil {
			return err
		}
		fmt.Printf("layer replay, %s events (%s, GOMAXPROCS %d, loopback)\n", size, res.Env.Go, res.Env.GOMAXPROCS)
		printMetrics(res.PerLayer, perLayer)
		if err := writeJSON(filepath.Join(cfg.outDir, "layers_"+size+".json"), res); err != nil {
			return err
		}
	}
	return os.RemoveAll(filepath.Join(cfg.outDir, "tmp"))
}

func printResult(r *result) {
	fmt.Printf("%s  seed %d  W %d  timed %.2f s  commit %.12s  %s  GOMAXPROCS %d of %d  kernel %s  %s\n",
		r.Workload, r.Seed, r.CreditWindow, r.TimedSeconds, r.Env.Commit, r.Env.Go, r.Env.GOMAXPROCS, r.Env.NProc, r.Env.Kernel, r.Env.Link)
	fmt.Printf("  attempted %d  failed %d  duplicates %d  corrupt %d  gob blob %d..%d B  samples %v\n",
		r.Attempted, r.Failed, r.Duplicates, r.Corrupt, r.BlobBytes[0], r.BlobBytes[1], r.Samples)
	printMetrics(r.EndToEnd, endToEnd)
	printMetrics(r.Diagnostic, nil)
	printMetrics(r.PerLayer, perLayer)
}

func printMetrics(m map[string]metric, defs []metricDef) {
	for _, name := range sortedNames(m, defs) {
		note := ""
		if d, ok := defByName(defs, name); ok && d.bound > 0 {
			note = fmt.Sprintf("  (%s is better, bound %.0f %%)", d.better, d.bound*100)
		} else if defs == nil {
			note = "  (diagnostic, not gated)"
		}
		fmt.Printf("  %-38s %16.4f %-6s%s\n", name, m[name].Value, m[name].Unit, note)
	}
}
