package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// loadResults reads one result file, or every *.json result file of a
// directory, keyed by workload.
func loadResults(path string) (map[string]*result, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	}
	out := map[string]*result{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if r.Workload != "" && len(r.EndToEnd) > 0 { // trace files live beside results
			out[r.Workload] = &r
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no result files", path)
	}
	return out, nil
}

// worsening is how far b is worse than a, as a share of a.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compare prints, per workload and gated metric, both values, how much
// worse b is and the bound, and reports whether b stays inside every
// bound with no larger failed share. It is what "two sets of runs agree"
// means in this repository.
func compare(out io.Writer, aPath, bPath string) (bool, error) {
	as, err := loadResults(aPath)
	if err != nil {
		return false, err
	}
	bs, err := loadResults(bPath)
	if err != nil {
		return false, err
	}
	names := make([]string, 0, len(as))
	for name := range as {
		names = append(names, name)
	}
	sort.Strings(names)
	ok := true
	fmt.Fprintf(out, "%-16s %-30s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "worse by", "bound")
	for _, name := range names {
		a, b := as[name], bs[name]
		if b == nil {
			fmt.Fprintf(out, "%-16s missing from %s\n", name, bPath)
			ok = false
			continue
		}
		for _, d := range endToEnd {
			av, aok := a.EndToEnd[d.name]
			bv, bok := b.EndToEnd[d.name]
			if !aok || !bok {
				continue
			}
			w := worsening(d, av.Value, bv.Value)
			verdict := ""
			if w > d.bound {
				verdict, ok = "  REGRESSION", false
			}
			fmt.Fprintf(out, "%-16s %-30s %14.4f %14.4f %+8.1f%% %6.0f%%%s\n",
				name, d.name+" ("+d.unit+")", av.Value, bv.Value, w*100, d.bound*100, verdict)
		}
		fa, fb := failedShare(a), failedShare(b)
		verdict := ""
		if fb > fa || !b.Correct {
			verdict, ok = "  REGRESSION", false
		}
		fmt.Fprintf(out, "%-16s %-30s %14.6f %14.6f%s\n", name, "failed / attempted", fa, fb, verdict)
	}
	return ok, nil
}

func failedShare(r *result) float64 {
	return float64(r.Failed) / float64(max(r.Attempted, 1))
}
