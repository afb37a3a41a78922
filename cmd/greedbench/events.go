package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"greednet/internal/des"
	"greednet/internal/hotpath"
)

// The events layer: every case of hotpath.EventScales — the DES
// engines the suite runs, at the paper's populations and up to 10⁵
// sources — timed per processed event against an absolute ceiling.
// Each case runs in eventRounds rounds; the fastest round's ns/event is
// the gated row, since co-tenant load only ever adds time, and the
// median is recorded beside it.  The warm event loops must not allocate
// per event, and a multi-core host must see replication throughput
// scale through internal/parallel.

const (
	// eventRounds is the number of timed rounds per case; eventSide is
	// the least wall time each round runs.
	eventRounds = 7
	eventSide   = 100 * time.Millisecond

	// replicationSpeedupFloor gates the multi-core replication pass.
	// Deliberately loose: it must catch "parallelism broke", not
	// contend with scheduler jitter.
	replicationSpeedupFloor = 1.2

	replicationCase = "replication"
)

func eventRows() []Row {
	var rows []Row
	for _, s := range hotpath.EventScales() {
		rows = append(rows,
			row(s.Name, "events_per_run"),
			atMost(s.Name, "ns_per_event", s.NsPerEventMax),
			row(s.Name, "ns_per_event_median"),
			atMost(s.Name, "allocs_per_event", hotpath.AllocsPerEventBudget))
	}
	speedup := atLeast(replicationCase, "speedup", replicationSpeedupFloor)
	speedup.MultiCore = true
	return append(rows,
		row(replicationCase, "workers"),
		row(replicationCase, "sequential_ns"),
		row(replicationCase, "parallel_ns"),
		row(replicationCase, "events_per_sec"),
		speedup)
}

func measureEvents(v values) error {
	for _, s := range hotpath.EventScales() {
		if err := measureEventScale(s, v); err != nil {
			return err
		}
	}
	return measureReplications(v)
}

// timeRuns runs fn until at least d has elapsed and returns the mean
// nanoseconds per run.
func timeRuns(fn func() error, d time.Duration) (float64, error) {
	start := time.Now()
	for n := 1; ; n++ {
		if err := fn(); err != nil {
			return 0, err
		}
		if el := time.Since(start); el >= d {
			return float64(el.Nanoseconds()) / float64(n), nil
		}
	}
}

func median(xs []float64) float64 { return percentile(slices.Sorted(slices.Values(xs)), 0.5) }

// measureEventScale times one case in eventRounds rounds and measures
// its steady-state allocation rate.
func measureEventScale(s hotpath.EventScale, v values) error {
	events, err := hotpath.EventRun(s, 1)
	if err != nil {
		return err
	}
	run := func() error { _, err := hotpath.EventRun(s, 1); return err }
	ns := make([]float64, eventRounds)
	for i := range ns {
		perRun, err := timeRuns(run, eventSide)
		if err != nil {
			return err
		}
		ns[i] = perRun / float64(events)
	}
	ape, err := hotpath.EventAllocsPerEvent(s)
	if err != nil {
		return err
	}
	fmt.Printf("events %-9s %-8s ns/event over %d rounds: %.1f–%.1f, median %.1f (ceiling %g on the fastest)\n",
		s.Name, s.Engine, eventRounds, slices.Min(ns), slices.Max(ns), median(ns), s.NsPerEventMax)
	v.set(s.Name, "events_per_run", float64(events))
	v.set(s.Name, "ns_per_event", slices.Min(ns))
	v.set(s.Name, "ns_per_event_median", median(ns))
	v.set(s.Name, "allocs_per_event", ape)
	return nil
}

// measureReplications times a replication batch through
// des.RunReplications at one worker and at the host's core count.
// Replication results are deterministic per seed, so both passes do
// identical work.
func measureReplications(v values) error {
	cfg := des.Config{
		Rates:   []float64{0.2, 0.2, 0.2, 0.2},
		Horizon: 4e4,
	}
	newDisc := func() des.Discipline { return &des.FIFO{} }
	seeds := make([]int64, 8)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	workers := runtime.GOMAXPROCS(0)

	var events int64
	timeAt := func(w int) (float64, error) {
		r, err := benchmark(func() error {
			results, err := des.RunReplications(cfg, newDisc, seeds, w)
			events = 0
			for _, res := range results {
				events += res.Arrivals + res.Departures
			}
			return err
		})
		if err != nil {
			return 0, err
		}
		return float64(r.T.Nanoseconds() / int64(r.N)), nil
	}
	seqNs, err := timeAt(1)
	if err != nil {
		return err
	}
	parNs, err := timeAt(workers)
	if err != nil {
		return err
	}
	v.set(replicationCase, "workers", float64(workers))
	v.set(replicationCase, "sequential_ns", seqNs)
	v.set(replicationCase, "parallel_ns", parNs)
	v.set(replicationCase, "events_per_sec", float64(events)/(parNs/1e9))
	v.set(replicationCase, "speedup", seqNs/parNs)
	return nil
}
