package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// The smoke test keeps the benchmark compiling and honest through
// refactors of the program: every workload runs with a 300 ms window and
// three late joiners, untraced and traced, and must lose nothing,
// duplicate nothing and emit every metric BENCHMARK.json names. It
// asserts no speeds.

func smokeOpts(t *testing.T, traced bool) runOpts {
	return runOpts{
		seed: 7, window: 300 * time.Millisecond, warmup: 100 * time.Millisecond, drain: 5 * time.Second,
		setups: 1, minJoiners: 3, joinTimeout: 10 * time.Second, traced: traced, outDir: t.TempDir(),
	}
}

type benchmarkDoc struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	file, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := benchmarkJSON(runSeconds)
	if err != nil {
		t.Fatal(err)
	}
	if string(file) != string(want) {
		t.Fatalf("BENCHMARK.json differs from the catalogue in this package; regenerate it with `go run ./bench -catalogue > BENCHMARK.json`")
	}
	var doc benchmarkDoc
	if err := json.Unmarshal(file, &doc); err != nil {
		t.Fatal(err)
	}
	if w, e, l := len(doc.Workloads), len(doc.EndToEnd), len(doc.PerLayer); w < 2 || w > 8 || e < 1 || e > 16 || l < 1 || l > 128 {
		t.Fatalf("%d workloads, %d end-to-end and %d per-layer metrics: outside 2..8 / 1..16 / 1..128", w, e, l)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q is malformed", n, u)
		}
		seen[n] = true
	}
	for _, w := range doc.Workloads {
		check(w.Name, "")
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range doc.EndToEnd {
		check(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range doc.PerLayer {
		check(m.Name, m.Unit)
	}
}

func TestSmoke(t *testing.T) {
	layers := map[string]map[string]metric{}
	for _, size := range []string{"2k", "64b"} {
		m, err := replayLayers(7, size, 5*time.Millisecond, t.TempDir())
		if err != nil {
			t.Fatalf("layer replay %s: %v", size, err)
		}
		layers[size] = m
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			t.Parallel()
			res, err := runWorkload(wl, smokeOpts(t, false))
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runWorkload(wl, smokeOpts(t, true))
			if err != nil {
				t.Fatal(err)
			}
			out := t.TempDir()
			if err := mergeLayers(res, traced, &result{PerLayer: layers[wl.size]}, out); err != nil {
				t.Fatal(err)
			}
			if res.Attempted < 1 || res.Failed != 0 || res.Duplicates != 0 || res.Corrupt != 0 || !res.Correct {
				t.Fatalf("attempted %d, failed %d, duplicates %d, corrupt %d", res.Attempted, res.Failed, res.Duplicates, res.Corrupt)
			}
			if wl.depth > 0 && res.Samples["catchup_ms"] < 3 {
				t.Fatalf("%d joiners caught up, want at least 3", res.Samples["catchup_ms"])
			}
			for _, d := range endToEnd {
				m, ok := res.EndToEnd[d.name]
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0 || m.Unit != d.unit {
					t.Errorf("end-to-end %s = %+v (present %v)", d.name, m, ok)
				}
			}
			for _, d := range perLayer {
				m, ok := res.PerLayer[d.name]
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.unit {
					t.Errorf("per-layer %s = %+v (present %v)", d.name, m, ok)
				}
			}
			for name := range res.PerLayer {
				if _, ok := defByName(perLayer, name); !ok {
					t.Errorf("per-layer %s is emitted but not in the catalogue", name)
				}
			}
			if _, err := os.Stat(filepath.Join(out, "budget_"+wl.name+".md")); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rate float64, failed int64) string {
		r := &result{Workload: "fanout8_2k", Attempted: 1000, Failed: failed, Correct: true,
			EndToEnd: map[string]metric{"deliveries_per_s": {rate, "1/s"}, "setup_s": {0.5, "s"}}}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 30000, 0)
	rate, _ := defByName(endToEnd, "deliveries_per_s")
	for _, tc := range []struct {
		name   string
		rate   float64
		failed int64
		ok     bool
	}{
		{"same.json", 30000, 0, true},
		{"inside.json", 30000 * (1 - rate.bound + 0.02), 0, true},
		{"faster.json", 40000, 0, true},
		{"outside.json", 30000 * (1 - rate.bound - 0.02), 0, false},
		{"lossy.json", 30000, 1, false},
	} {
		ok, err := compare(io.Discard, base, write(tc.name, tc.rate, tc.failed))
		if err != nil {
			t.Fatal(err)
		}
		if ok != tc.ok {
			t.Errorf("%s: compare says %v, want %v", tc.name, ok, tc.ok)
		}
	}
}
