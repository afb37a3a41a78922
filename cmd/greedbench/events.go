package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"greednet/internal/des"
	"greednet/internal/hotpath"
)

// The events layer: the events/sec headline family.  Each population
// scale runs the calendar-queue engine and its frozen container/heap
// baseline over the IDENTICAL event sequence (internal/des's
// differential suite pins the two bit-identical), so the calendar/heap
// ratio is a pure runtime ratio and travels across hosts; absolute
// events/sec is recorded for trending only.  The engines are timed in
// interleaved rounds, alternating which goes first, and the ratio row
// is the median over the rounds, so host drift during the run lands in
// the spread rather than in the headline.  The warm calendar engine
// must not allocate per event, and a multi-core host must see
// replication throughput scale through internal/parallel.

const (
	// eventRounds is the number of interleaved calendar/heap rounds per
	// scale; eventSide is the least wall time each engine runs per round.
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
			row(s.Name, "calendar_events_per_sec"),
			row(s.Name, "heap_events_per_sec"),
			atLeast(s.Name, "speedup_vs_heap", s.RatioFloor),
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

// measureEventScale times both engines at one scale in eventRounds
// interleaved rounds and measures the steady-state allocation rate.
func measureEventScale(s hotpath.EventScale, v values) error {
	events, err := hotpath.EventRun(s, 1)
	if err != nil {
		return err
	}
	cal := func() error { _, err := hotpath.EventRun(s, 1); return err }
	heap := func() error { _, err := hotpath.EventRunHeap(s, 1); return err }
	var calNs, heapNs, ratios []float64
	for i := 0; i < eventRounds; i++ {
		var c, h float64
		if i%2 == 0 {
			if c, err = timeRuns(cal, eventSide); err == nil {
				h, err = timeRuns(heap, eventSide)
			}
		} else {
			if h, err = timeRuns(heap, eventSide); err == nil {
				c, err = timeRuns(cal, eventSide)
			}
		}
		if err != nil {
			return err
		}
		calNs, heapNs, ratios = append(calNs, c), append(heapNs, h), append(ratios, h/c)
	}
	ape, err := hotpath.EventAllocsPerEvent(s)
	if err != nil {
		return err
	}
	fmt.Printf("events %-5s calendar/heap over %d rounds: %.2f–%.2f, median %.2f (floor %.2f)\n",
		s.Name, eventRounds, slices.Min(ratios), slices.Max(ratios), median(ratios), s.RatioFloor)
	v.set(s.Name, "events_per_run", float64(events))
	v.set(s.Name, "calendar_events_per_sec", float64(events)/(median(calNs)/1e9))
	v.set(s.Name, "heap_events_per_sec", float64(events)/(median(heapNs)/1e9))
	v.set(s.Name, "speedup_vs_heap", median(ratios))
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
