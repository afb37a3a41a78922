// Command greedbench runs the paper-reproduction experiment suite (E1–E21)
// and prints each experiment's table with a paper-vs-measured verdict.
// EXPERIMENTS.md is generated from this tool's output.
//
// Usage:
//
//	greedbench [-run E1,E8] [-fast] [-seed N] [-workers N] [-timeout D] [-chaos] [-list]
//	greedbench -bench all|hotpath,classes,events,service,parallel [-force]
//	greedbench -escapes BENCH_escapes.json
//
// -workers experiments run at once (default: all cores), each rendering
// into its own buffer; buffers are flushed in registry order, so stdout
// is byte-identical for every worker count.  Inside an experiment, the
// independent simulations of E14, E15, E18 and E19 spread over
// GOMAXPROCS whatever -workers says (GOMAXPROCS=1 runs them inline), and
// are rendered in a fixed order, so the bytes do not depend on
// GOMAXPROCS either.  An explicit -seed pins every experiment's seed —
// including -seed 0, which is a real seed, not "use the defaults".
//
// With -timeout each experiment runs under a watchdog: one that exceeds
// it renders a deterministic FAILED(deadline) block in its slot while
// the rest of the suite completes normally.  -chaos appends the
// deliberately misbehaving chaos experiments (EX1 hangs, EX2 panics) to
// the selection — use with -timeout to exercise the degradation paths.
//
// With -bench the suite is skipped in favor of the measured layers
// (bench.go): "all" or a comma list of hotpath, classes, events, service
// and parallel.  Each layer writes BENCH_<layer>.json in one schema — a
// host header plus (case, metric, value, budget) rows — and one gate
// checks every row against its ceiling or floor.  A one-core run may
// not replace the multi-core artifact of a core-bound layer (events,
// service, parallel) without -force.  -cpuprofile and -memprofile write
// pprof profiles of whatever work the invocation did.
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
// mismatches the paper's shape (or, under -bench, a row misses its
// budget; under -escapes, the escape baseline drifted); 2 on
// infrastructure errors (bad flags, write failures).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"greednet/internal/experiment"
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
		workers = flag.Int("workers", runtime.GOMAXPROCS(0), "experiments run at once (1 runs them one at a time; each still spreads its own independent simulations over GOMAXPROCS); output is identical for every value")
		timeout = flag.Duration("timeout", 0, "per-experiment watchdog; a run exceeding it renders FAILED(deadline) in its slot (0 disables)")
		chaosOn = flag.Bool("chaos", false, "append the fault-injection chaos experiments (EX1 hangs; EX2 panics) to the selection")
		cpuProf = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this path")
		memProf = flag.String("memprofile", "", "write a pprof heap profile (after the run) to this path")
		escOut  = flag.String("escapes", "", "diff the compiler's hot-path escape analysis against the baseline JSON at this path instead of running the suite; exit 1 on new or stale escapes")
		benchL  = flag.String("bench", "", "measure these layers instead of running the suite (all, or a comma list of hotpath,classes,events,service,parallel), writing BENCH_<layer>.json for each; exit 1 when a row misses its budget")
		force   = flag.Bool("force", false, "allow -bench to replace the multi-core artifact of a core-bound layer (events, service, parallel) with a one-core measurement")
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

	if *benchL != "" {
		code, err := runBench(*benchL, *force)
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
