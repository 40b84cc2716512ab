//go:build !linux

package main

import (
	"runtime/metrics"
	"time"
)

// processCPU falls back to the Go runtime's own estimate of the CPU time the
// program has used, which it brings up to date once per GC cycle: coarser
// than getrusage, good enough to build and smoke-test off Linux.
func processCPU() time.Duration {
	s := []metrics.Sample{{Name: "/cpu/classes/total:cpu-seconds"}, {Name: "/cpu/classes/idle:cpu-seconds"}}
	metrics.Read(s)
	return time.Duration((s[0].Value.Float64() - s[1].Value.Float64()) * float64(time.Second))
}

// tmpfsWithRoom cannot tell here; durable files then stay under -out.
func tmpfsWithRoom(string, uint64) bool { return false }
