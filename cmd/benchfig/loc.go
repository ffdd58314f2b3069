package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// loc.go reproduces the §4.4 programming-experience comparison: the
// number of lines a programmer writes for the same ski-rental
// application over TPS versus directly over JXTA. The paper reports
// ~5000 extra lines for the full TPS-equivalent functionality in Java
// (≥900 in the minimal case); the Go gap is smaller in absolute terms
// but the shape — an order of magnitude more application code without
// the abstraction — is the same.

// countGoLines counts non-blank, non-comment lines across the .go files
// of a directory (tests excluded: the comparison is about application
// code).
func countGoLines(dir string) (int, error) {
	total := 0
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		n, err := countFileLines(filepath.Join(dir, name))
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

func countFileLines(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	count := 0
	inBlock := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if inBlock {
			if strings.Contains(line, "*/") {
				inBlock = false
			}
			continue
		}
		switch {
		case line == "", strings.HasPrefix(line, "//"):
			continue
		case strings.HasPrefix(line, "/*"):
			if !strings.Contains(line, "*/") {
				inBlock = true
			}
			continue
		}
		count++
	}
	return count, sc.Err()
}

// locRow is one line of the comparison table.
type locRow struct {
	what string
	dirs []string
}

func printLoC() error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	rows := []locRow{
		{"SR-TPS  (app over TPS, §4.3)", []string{"internal/srapp/srtps", "examples/skirental"}},
		{"SR-JXTA (app direct on JXTA, §4.4)", []string{"internal/srapp/srjxta", "examples/skirental-jxta"}},
	}
	fmt.Println("=== §4.4 programming-experience comparison (non-blank, non-comment Go lines) ===")
	counts := make([]int, len(rows))
	for i, row := range rows {
		for _, d := range row.dirs {
			n, err := countGoLines(filepath.Join(root, d))
			if err != nil {
				return fmt.Errorf("counting %s: %w", d, err)
			}
			counts[i] += n
		}
		fmt.Printf("  %-38s %5d lines   (%s)\n", row.what, counts[i], strings.Join(row.dirs, " + "))
	}
	if counts[0] > 0 {
		fmt.Printf("  writing the app directly on JXTA costs %d extra lines (%.1fx)\n",
			counts[1]-counts[0], float64(counts[1])/float64(counts[0]))
	}
	fmt.Println("  (paper, in Java: ~5000 extra lines with full TPS functionality; >=900 minimal)")
	return printSubstrateSize(root)
}

// trackedDirs are the seven directories the substrate table was first
// typed from; their subtotal stays one printed line so the ROADMAP's
// trajectory (… 4069) remains comparable. A directory deleted since
// (internal/jxta/peergroup) or gone from the closure (internal/jxta/wire,
// which only the baselines link now) counts 0 and stays listed, so the
// subtotal keeps its meaning.
var trackedDirs = map[string]bool{
	"internal/jxta/rendezvous": true,
	"internal/jxta/peer":       true,
	"internal/jxta/peergroup":  true,
	".":                        true,
	"internal/jxta/wire":       true,
	"internal/core/engine":     true,
	"internal/jxta/message":    true,
}

// printSubstrateSize prints the second table: the same line count over
// every directory of this module that the public package links — its
// import closure, asked of the go tool, so nothing a tps.Platform
// carries can stay out of the tracked number.
func printSubstrateSize(root string) error {
	list := exec.Command("go", "list", "-deps", "-f", "{{if not .Standard}}{{.Dir}}{{end}}", ".")
	list.Dir = root
	list.Stderr = os.Stderr
	out, err := list.Output()
	if err != nil {
		return fmt.Errorf("go list -deps: %w", err)
	}
	fmt.Println("=== substrate size: import closure of package tps (non-blank, non-comment, non-test Go lines) ===")
	total, tracked := 0, 0
	for _, dir := range strings.Fields(string(out)) {
		n, err := countGoLines(dir)
		if err != nil {
			return fmt.Errorf("counting %s: %w", dir, err)
		}
		d, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		d = filepath.ToSlash(d)
		fmt.Printf("  %-36s %5d\n", d, n)
		total += n
		if trackedDirs[d] {
			tracked += n
		}
	}
	fmt.Printf("  %-36s %5d\n", "total", total)
	fmt.Printf("  %-36s %5d\n", "of which the seven tracked to PR 20", tracked)
	return nil
}

// repoRoot walks up from the working directory to the go.mod.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("go.mod not found above %s (run from inside the repository)", dir)
		}
		dir = parent
	}
}
