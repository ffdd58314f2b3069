//go:build !unix

package main

import "time"

// Without getrusage the CPU and memory figures read 0 and the run says
// so; the benchmark of record runs on Linux.
func processCPU() time.Duration { return 0 }

func peakRSSMB() float64 { return 0 }
