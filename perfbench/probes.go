package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// usage is the process's resource counters at one phase boundary.
type usage struct {
	wall       time.Time
	cpu        time.Duration // user + system
	gcCycles   uint64
	allocBytes uint64
	allocObjs  uint64
	gcPause    float64 // seconds of stop-the-world GC pause
}

var usageSamples = []metrics.Sample{
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/sched/pauses/total/gc:seconds"},
}

func readUsage() usage {
	u := usage{wall: time.Now()}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s := make([]metrics.Sample, len(usageSamples))
	copy(s, usageSamples)
	metrics.Read(s)
	u.gcCycles = uint64Of(s[0])
	u.allocBytes = uint64Of(s[1])
	u.allocObjs = uint64Of(s[2])
	if s[3].Value.Kind() == metrics.KindFloat64Histogram {
		u.gcPause = histSum(s[3].Value.Float64Histogram())
	}
	return u
}

func uint64Of(s metrics.Sample) uint64 {
	if s.Value.Kind() == metrics.KindUint64 {
		return s.Value.Uint64()
	}
	return 0
}

// histSum estimates a histogram's total from bucket midpoints (an
// infinite edge takes the finite one).
func histSum(h *metrics.Float64Histogram) float64 {
	var sum float64
	for i, c := range h.Counts {
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		switch {
		case math.IsInf(lo, -1):
			lo = hi
		case math.IsInf(hi, 1):
			hi = lo
		}
		sum += float64(c) * (lo + hi) / 2
	}
	return sum
}

// runtimeMetrics renders the runtime.* metrics for the phase from u0 to
// u1 that completed ops operations.
func runtimeMetrics(m metricSet, u0, u1 usage, ops int64) {
	wall := u1.wall.Sub(u0.wall).Seconds()
	m.set("runtime.cpu_util", (u1.cpu-u0.cpu).Seconds()/(wall*float64(runtime.NumCPU())))
	m.set("runtime.gc_pause_ms", (u1.gcPause-u0.gcPause)*1e3)
	m.set("runtime.gc_cycles", float64(u1.gcCycles-u0.gcCycles))
	m.set("runtime.alloc_mb", float64(u1.allocBytes-u0.allocBytes)/(1<<20))
	m.set("runtime.allocs_per_op", float64(u1.allocObjs-u0.allocObjs)/float64(max(ops, 1)))
}

// peakRSSMiB is the process's maximum resident set so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
