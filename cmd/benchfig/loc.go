package main

import (
	"bufio"
	"fmt"
	"os"
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

// substrateDirs are the packages between the public API and the
// transports — what an application programmer never sees and the
// ROADMAP tracks the size of.
var substrateDirs = []string{
	"internal/jxta/rendezvous",
	"internal/jxta/peer",
	"internal/jxta/peergroup",
	".",
	"internal/jxta/wire",
	"internal/core/engine",
	"internal/jxta/message",
}

// printSubstrateSize prints the second table: the same line count over
// the substrate packages (each directory alone, not its subdirectories).
func printSubstrateSize(root string) error {
	fmt.Println("=== substrate size (non-blank, non-comment, non-test Go lines) ===")
	total := 0
	for _, d := range substrateDirs {
		n, err := countGoLines(filepath.Join(root, d))
		if err != nil {
			return fmt.Errorf("counting %s: %w", d, err)
		}
		fmt.Printf("  %-28s %5d\n", d, n)
		total += n
	}
	fmt.Printf("  %-28s %5d\n", "total", total)
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
