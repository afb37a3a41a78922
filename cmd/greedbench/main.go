// Command greedbench runs the paper-reproduction experiment suite (E1–E21)
// and prints each experiment's table with a paper-vs-measured verdict.
// EXPERIMENTS.md is generated from this tool's output.
//
// Usage:
//
//	greedbench [-run E1,E8] [-fast] [-seed N] [-workers N] [-timeout D] [-chaos] [-list]
//
// Experiments fan out across -workers goroutines (default: all cores),
// each rendering into its own buffer; buffers are flushed in registry
// order, so stdout is byte-identical for every worker count.  An explicit
// -seed pins every experiment's seed — including -seed 0, which is a
// real seed, not "use the defaults".
//
// With -timeout each experiment runs under a watchdog: one that exceeds
// it renders a deterministic FAILED(deadline) block in its slot while
// the rest of the suite completes normally.  -chaos appends the
// deliberately misbehaving chaos experiments (EX1 hangs, EX2 panics) to
// the selection — use with -timeout to exercise the degradation paths.
//
// With -hotpath the experiment suite is skipped entirely: the hot-path
// micro-benchmarks (internal/hotpath) run instead and their ns/op,
// allocs/op and bytes/op land in the given JSON file; a gated case that
// allocates exits 1.  -cpuprofile and -memprofile write pprof profiles
// of whatever work the invocation did.
//
// With -classes the suite is skipped in favor of the class-solver gate:
// the class-aggregated Nash solver runs at K classes over N users up to
// 10^6, its ns/op is checked against each scale's ceiling, its warm
// steady state against zero allocs/op, and its arithmetic against the
// exact per-user solver (Float64bits at K = N); results land
// in BENCH_classes.json.
//
// With -escapes the suite is also skipped: the module is compiled with
// -gcflags=-m and every "escapes to heap" / "moved to heap" diagnostic
// inside a //lint:hotpath function is diffed against the committed
// baseline (BENCH_escapes.json).  A new escape is a regression; a
// baseline entry the compiler no longer reports is stale; either fails
// the gate.  A clean comparison rewrites the baseline byte-identically
// so CI can assert reproducibility with git diff.
//
// Exit status: 1 if any selected experiment fails, times out, panics, or
// mismatches the paper's shape (or, under -hotpath, a gated benchmark
// allocates; under -escapes, the escape baseline drifted); 2 on
// infrastructure errors (bad flags, write failures).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"greednet/internal/experiment"
	"greednet/internal/hotpath"
)

// main delegates to run so that deferred cleanups — in particular
// pprof.StopCPUProfile — execute before the process exits.
func main() {
	os.Exit(run())
}

func run() int {
	var (
		runList = flag.String("run", "", "comma-separated experiment IDs (default: all; repeats are deduped)")
		fast    = flag.Bool("fast", false, "use reduced horizons and search budgets")
		seed    = flag.Int64("seed", 0, "pin every experiment's seed (an explicit -seed 0 is honored; default: per-experiment seeds)")
		list    = flag.Bool("list", false, "list experiments and exit")
		mdOut   = flag.String("md", "", "also write a Markdown verdict summary to this path")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0), "parallel experiment runners (1 runs sequentially; output is identical either way)")
		benchJS = flag.String("benchjson", "", "time the suite sequentially and at -workers, write the comparison as JSON to this path")
		timeout = flag.Duration("timeout", 0, "per-experiment watchdog; a run exceeding it renders FAILED(deadline) in its slot (0 disables)")
		chaosOn = flag.Bool("chaos", false, "append the fault-injection chaos experiments (EX1 hangs; EX2 panics) to the selection")
		cpuProf = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this path")
		memProf = flag.String("memprofile", "", "write a pprof heap profile (after the run) to this path")
		hotOut  = flag.String("hotpath", "", "run the hot-path micro-benchmarks instead of the suite, write ns/op+allocs/op JSON to this path; exit 1 if a gated path exceeds its allocs/op budget")
		escOut  = flag.String("escapes", "", "diff the compiler's hot-path escape analysis against the baseline JSON at this path instead of running the suite; exit 1 on new or stale escapes")
		evOut   = flag.String("events", "", "run the events/sec benchmark family (calendar vs heap engines plus replication throughput) instead of the suite, write JSON to this path; exit 1 on a ratio, allocation, or scaling regression")
		clsOut  = flag.String("classes", "", "run the class-solver benchmark family (K classes, N users up to 10^6) instead of the suite, write JSON to this path; exit 1 on a ceiling, allocation, speedup, or bit-equality regression")
		svcOut  = flag.String("service", "", "run the greedd chaos load harness instead of the suite, write latency/shed JSON to this path; exit 1 on queue growth, untyped rejections, panics, or leaked goroutines")
		svcN    = flag.Int("service-clients", 1000, "client population for -service")
		svcR    = flag.Int("service-rounds", 2, "control-loop rounds per client for -service")
		force   = flag.Bool("force", false, "allow -benchjson/-events/-service to overwrite a multi-core artifact with a single-core (speedup_valid:false) measurement")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "greedbench:", err)
			return 2
		}
		defer func() {
			if cerr := f.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "greedbench:", cerr)
			}
		}()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "greedbench:", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "greedbench:", err)
				return
			}
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "greedbench:", err)
			}
			if cerr := f.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "greedbench:", cerr)
			}
		}()
	}

	if *hotOut != "" {
		code, err := writeHotpathJSON(*hotOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "greedbench:", err)
			return 2
		}
		return code
	}
	if *escOut != "" {
		code, err := writeEscapesJSON(*escOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "greedbench:", err)
			return 2
		}
		return code
	}
	if *evOut != "" {
		code, err := writeEventsJSON(*evOut, *force)
		if err != nil {
			fmt.Fprintln(os.Stderr, "greedbench:", err)
			return 2
		}
		return code
	}
	if *clsOut != "" {
		code, err := writeClassesJSON(*clsOut, *force)
		if err != nil {
			fmt.Fprintln(os.Stderr, "greedbench:", err)
			return 2
		}
		return code
	}
	if *svcOut != "" {
		code, err := writeServiceJSON(*svcOut, *svcN, *svcR, *seed, *force)
		if err != nil {
			fmt.Fprintln(os.Stderr, "greedbench:", err)
			return 2
		}
		return code
	}
	// The flag's zero value and an explicit -seed 0 must stay
	// distinguishable, or seed 0 is unpinnable; Visit only walks flags
	// that were actually set.
	seedSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			seedSet = true
		}
	})

	if *list {
		for _, e := range experiment.All() {
			fmt.Printf("%-4s %-28s %s\n", e.ID, e.Source, e.Title)
		}
		if *chaosOn {
			for _, e := range experiment.ChaosExperiments() {
				fmt.Printf("%-4s %-28s %s\n", e.ID, e.Source, e.Title)
			}
		}
		return 0
	}

	selected := experiment.All()
	if *runList != "" {
		selected = selected[:0]
		seen := make(map[string]bool)
		for _, id := range strings.Split(*runList, ",") {
			id = strings.TrimSpace(id)
			if seen[id] {
				continue // -run E1,E1 must not double-count in the summary
			}
			seen[id] = true
			e, ok := experiment.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "greedbench: unknown experiment %q (use -list)\n", id)
				return 2
			}
			selected = append(selected, e)
		}
	}

	if *chaosOn {
		selected = append(selected, experiment.ChaosExperiments()...)
	}

	opt := experiment.Options{Fast: *fast, Seed: *seed, SeedSet: seedSet, Timeout: *timeout}

	if *benchJS != "" {
		if err := writeBenchJSON(*benchJS, selected, opt, *workers, *force); err != nil {
			fmt.Fprintln(os.Stderr, "greedbench:", err)
			return 2
		}
		return 0
	}

	outcomes, err := experiment.RunSuite(os.Stdout, selected, opt, *workers)
	var suiteErr *experiment.SuiteError
	if err != nil && !errors.As(err, &suiteErr) {
		// Infrastructure failure (e.g. stdout write error); experiment
		// failures are *SuiteError and are summarized from the outcomes.
		fmt.Fprintln(os.Stderr, "greedbench:", err)
		return 2
	}
	failures := 0
	for _, o := range outcomes {
		if o.Err != nil {
			fmt.Fprintf(os.Stderr, "greedbench: %s errored: %v\n", o.Experiment.ID, o.Err)
			failures++
		} else if !o.Verdict.Match {
			failures++
		}
	}
	fmt.Printf("suite: %d/%d experiments reproduce the paper\n",
		len(selected)-failures, len(selected))

	if *mdOut != "" {
		if err := writeMarkdown(*mdOut, outcomes); err != nil {
			fmt.Fprintln(os.Stderr, "greedbench:", err)
			return 2
		}
	}
	if failures > 0 {
		return 1
	}
	return 0
}

// writeMarkdown renders the verdict summary table for -md.
func writeMarkdown(path string, outcomes []experiment.Outcome) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	write := func(_ int, werr error) {
		if werr != nil && err == nil {
			err = werr
		}
	}
	write(fmt.Fprintln(f, "| ID | Paper source | Claim | Verdict |"))
	write(fmt.Fprintln(f, "|----|--------------|-------|---------|"))
	for _, o := range outcomes {
		verdict := "MATCH"
		switch {
		case o.Err != nil:
			verdict = "ERROR"
		case !o.Verdict.Match:
			verdict = "MISMATCH"
		}
		write(fmt.Fprintf(f, "| %s | %s | %s | %s |\n", o.Experiment.ID, o.Experiment.Source, o.Experiment.Title, verdict))
	}
	if cerr := f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// hotpathRecord is one micro-benchmark datapoint in BENCH_hotpath.json.
type hotpathRecord struct {
	Name        string  `json:"name"`
	Gated       bool    `json:"gated"`
	Budget      int64   `json:"allocs_budget,omitempty"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// writeHotpathJSON benchmarks every hot-path case with testing.Benchmark
// and writes the records to path.  The returned exit code
// is 1 when a gated case exceeded its allocation budget (zero for the
// workspace fast paths, the audited result-allocation count for the
// end-to-end cases), else 0.
func writeHotpathJSON(path string) (int, error) {
	cases := hotpath.Cases()
	recs := make([]hotpathRecord, 0, len(cases))
	code := 0
	for _, c := range cases {
		r := testing.Benchmark(c.Bench)
		rec := hotpathRecord{
			Name:        c.Name,
			Gated:       c.Gated,
			Budget:      c.Budget,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		recs = append(recs, rec)
		status := ""
		if c.Gated && rec.AllocsPerOp > c.Budget {
			if c.Budget == 0 {
				status = "  REGRESSION(gated path allocates)"
			} else {
				status = fmt.Sprintf("  REGRESSION(gated path exceeds %d allocs/op budget)", c.Budget)
			}
			code = 1
		}
		fmt.Printf("hotpath %-36s %12.1f ns/op %6d allocs/op %8d B/op%s\n",
			c.Name, rec.NsPerOp, rec.AllocsPerOp, rec.BytesPerOp, status)
	}
	data, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return 0, err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return 0, err
	}
	fmt.Printf("hotpath bench: %d cases -> %s\n", len(recs), path)
	return code, nil
}

// benchRecord is the perf-trajectory datapoint `make bench` archives as
// BENCH_parallel.json.
type benchRecord struct {
	Benchmark    string  `json:"benchmark"`
	Experiments  int     `json:"experiments"`
	Fast         bool    `json:"fast"`
	Workers      int     `json:"workers"`
	HostCores    int     `json:"host_cores"`
	SequentialNS int64   `json:"sequential_ns"`
	ParallelNS   int64   `json:"parallel_ns"`
	Speedup      float64 `json:"speedup"`
	// SpeedupValid is false when the host has a single core: the pooled
	// pass cannot physically run anything in parallel there, so Speedup
	// measures scheduling overhead, not scaling, and downstream tooling
	// must not trend it.
	SpeedupValid bool `json:"speedup_valid"`
}

// guardBenchOverwrite applies the shared artifact guard (guard.go) to
// the -benchjson record before the timing run is spent.
func guardBenchOverwrite(path string, next benchRecord, force bool) error {
	return guardArtifactOverwrite(path, next.SpeedupValid, force)
}

// writeBenchJSON times the selected suite once sequentially and once at
// the requested worker count, and writes the comparison as JSON.
func writeBenchJSON(path string, selected []experiment.Experiment, opt experiment.Options, workers int, force bool) error {
	// Validity is known from the host alone — guard before spending
	// minutes timing a run whose artifact would be refused anyway.
	probe := benchRecord{HostCores: runtime.GOMAXPROCS(0), SpeedupValid: runtime.GOMAXPROCS(0) > 1}
	if err := guardBenchOverwrite(path, probe, force); err != nil {
		return err
	}
	run := func(w int) (time.Duration, error) {
		start := time.Now()
		outcomes, err := experiment.RunSuite(io.Discard, selected, opt, w)
		var se *experiment.SuiteError
		if err != nil && !errors.As(err, &se) {
			return 0, err
		}
		// A verdict mismatch (SuiteError with no outcome errors) still
		// times fine; only hard experiment errors invalidate the bench.
		for _, o := range outcomes {
			if o.Err != nil {
				return 0, fmt.Errorf("%s errored: %w", o.Experiment.ID, o.Err)
			}
		}
		return time.Since(start), nil
	}
	seq, err := run(1)
	if err != nil {
		return err
	}
	par, err := run(workers)
	if err != nil {
		return err
	}
	rec := benchRecord{
		Benchmark:    "experiment-suite",
		Experiments:  len(selected),
		Fast:         opt.Fast,
		Workers:      workers,
		HostCores:    runtime.GOMAXPROCS(0),
		SequentialNS: seq.Nanoseconds(),
		ParallelNS:   par.Nanoseconds(),
		Speedup:      float64(seq.Nanoseconds()) / float64(par.Nanoseconds()),
		SpeedupValid: runtime.GOMAXPROCS(0) > 1,
	}
	if err := writeArtifactJSON(path, rec, force); err != nil {
		return err
	}
	fmt.Printf("suite bench: sequential %v, %d workers %v (%.2fx), %d experiments -> %s\n",
		seq.Round(time.Millisecond), workers, par.Round(time.Millisecond), rec.Speedup, len(selected), path)
	return nil
}
