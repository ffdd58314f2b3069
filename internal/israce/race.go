//go:build race

// Package israce reports whether the race detector is compiled in, for
// allocation gates: under the detector sync.Pool drops a share of what
// is put into it, so pooled paths allocate at random.
package israce

// Enabled is true in a -race build.
const Enabled = true
