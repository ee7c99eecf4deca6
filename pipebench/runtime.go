package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
)

// runtimeSample is the Go runtime's cumulative allocation and CPU
// counters at one instant.
type runtimeSample struct {
	allocBytes      float64
	gcCPU, totalCPU float64
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// readRuntime runs between phases. It collects garbage first (the
// runtime updates its CPU classes only at GC cycles, so the readings
// bracket whole cycles) and flushes dirty pages, so one phase's disk
// writeback does not land in the next.
func readRuntime() runtimeSample {
	runtime.GC()
	syscall.Sync()
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, n := range runtimeMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: val(s[0].Value), gcCPU: val(s[1].Value), totalCPU: val(s[2].Value)}
}

// runtimeDelta is what one phase allocated and the GC's share of the
// CPU time the process used meanwhile.
type runtimeDelta struct {
	allocBytes      float64
	gcCPU, totalCPU float64
}

func (d runtimeDelta) gcShare() float64 {
	if d.totalCPU <= 0 {
		return 0
	}
	return d.gcCPU / d.totalCPU
}

// runtimeDelta records the counters' change over phase w.
func (m *meters) runtimeDelta(w string, before, after runtimeSample) {
	m.mu.Lock()
	m.runtime[w] = runtimeDelta{
		allocBytes: after.allocBytes - before.allocBytes,
		gcCPU:      after.gcCPU - before.gcCPU,
		totalCPU:   after.totalCPU - before.totalCPU,
	}
	m.mu.Unlock()
}
