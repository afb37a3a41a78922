package main

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"greednet/internal/experiment"
	"greednet/internal/hotpath"
)

// The hotpath layer: every internal/hotpath case under testing.Benchmark,
// its allocs/op held to the case's budget.
func hotpathRows() []Row {
	var rows []Row
	for _, c := range hotpath.Cases() {
		rows = append(rows,
			row(c.Name, "ns_per_op"),
			atMost(c.Name, "allocs_per_op", float64(c.Budget)),
			row(c.Name, "bytes_per_op"))
	}
	return rows
}

func measureHotpath(v values) error {
	for _, c := range hotpath.Cases() {
		r := testing.Benchmark(c.Bench)
		v.set(c.Name, "ns_per_op", float64(r.T.Nanoseconds())/float64(r.N))
		v.set(c.Name, "allocs_per_op", float64(r.AllocsPerOp()))
		v.set(c.Name, "bytes_per_op", float64(r.AllocedBytesPerOp()))
	}
	return nil
}

// The classes layer: the class-aggregated Nash solver at K classes over
// N users up to 10^6.  Each scale's ns/op has a ceiling an order of
// magnitude above a warm commodity-core solve (it catches a solve gone
// O(N), not host variance) and its warm steady state must not allocate.
// The small scales also time the exact per-user solver on the expanded
// profile, so the speedup is measured rather than claimed.  Before any
// timing the class arithmetic is checked Float64bits-equal to the exact
// solver at K = N, so the layer never records the speed of a solver
// that drifted off the exact answers.

// bitEqualCase is the classes row that carries the K = N check.
const bitEqualCase = "k64_n64"

func classRows() []Row {
	rows := []Row{atLeast(bitEqualCase, "bit_equal", 1)}
	for _, s := range hotpath.ClassScales() {
		rows = append(rows,
			row(s.Name, "iters"),
			atMost(s.Name, "ns_per_op", s.NsCeiling),
			atMost(s.Name, "allocs_per_op", 0),
			row(s.Name, "bytes_per_op"))
		if s.ExactCompare {
			rows = append(rows, row(s.Name, "exact_ns_per_op"), atLeast(s.Name, "speedup_vs_exact", 1))
		}
	}
	return rows
}

func measureClasses(v values) error {
	err := hotpath.ClassBitEquality()
	if err != nil {
		fmt.Printf("classes bit-equality: FAILED: %v\n", err)
	}
	v.set(bitEqualCase, "bit_equal", boolValue(err == nil))
	for _, s := range hotpath.ClassScales() {
		cb, err := hotpath.NewClassBench(s)
		if err != nil {
			return err
		}
		res, err := cb.Solve()
		if err != nil {
			return err
		}
		v.set(s.Name, "iters", float64(res.Iters))
		br, err := benchmark(func() error { _, err := cb.Solve(); return err })
		if err != nil {
			return err
		}
		ns := float64(br.T.Nanoseconds()) / float64(br.N)
		v.set(s.Name, "ns_per_op", ns)
		v.set(s.Name, "allocs_per_op", float64(br.AllocsPerOp()))
		v.set(s.Name, "bytes_per_op", float64(br.AllocedBytesPerOp()))
		if s.ExactCompare {
			xr, err := benchmark(func() error { _, err := cb.ExactSolve(); return err })
			if err != nil {
				return err
			}
			exact := float64(xr.T.Nanoseconds()) / float64(xr.N)
			v.set(s.Name, "exact_ns_per_op", exact)
			v.set(s.Name, "speedup_vs_exact", exact/ns)
		}
	}
	return nil
}

// benchmark times fn under testing.Benchmark with allocation reporting,
// stopping at fn's first error.
func benchmark(fn func() error) (testing.BenchmarkResult, error) {
	var ferr error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if ferr = fn(); ferr != nil {
				b.FailNow()
			}
		}
	})
	return r, ferr
}

// The parallel layer: the fast experiment suite timed once on one worker
// and once on GOMAXPROCS workers.
const suiteCase = "fast_suite"

func parallelRows() []Row {
	return []Row{
		row(suiteCase, "experiments"),
		row(suiteCase, "workers"),
		row(suiteCase, "sequential_ns"),
		row(suiteCase, "parallel_ns"),
		row(suiteCase, "speedup"),
	}
}

func measureParallel(v values) error {
	suite := experiment.All()
	workers := runtime.GOMAXPROCS(0)
	timeSuite := func(w int) (time.Duration, error) {
		start := time.Now()
		outcomes, err := experiment.RunSuite(io.Discard, suite, experiment.Options{Fast: true}, w)
		var se *experiment.SuiteError
		if err != nil && !errors.As(err, &se) {
			return 0, err
		}
		// A verdict mismatch still times fine; only a hard experiment
		// error invalidates the run.
		for _, o := range outcomes {
			if o.Err != nil {
				return 0, fmt.Errorf("%s errored: %w", o.Experiment.ID, o.Err)
			}
		}
		return time.Since(start), nil
	}
	seq, err := timeSuite(1)
	if err != nil {
		return err
	}
	par, err := timeSuite(workers)
	if err != nil {
		return err
	}
	v.set(suiteCase, "experiments", float64(len(suite)))
	v.set(suiteCase, "workers", float64(workers))
	v.set(suiteCase, "sequential_ns", float64(seq.Nanoseconds()))
	v.set(suiteCase, "parallel_ns", float64(par.Nanoseconds()))
	v.set(suiteCase, "speedup", float64(seq)/float64(par))
	return nil
}
