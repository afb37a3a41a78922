package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"greednet/internal/alloc"
	"greednet/internal/experiment"
	"greednet/internal/game"
)

// suiteSeeds are the experiment seeds at which all 21 experiments MATCH
// the paper (1–32 except 19 and 30, where E14's closed-loop verdict
// flips).  The workload seed picks one, so every workload seed runs a
// suite that is expected to pass.
var suiteSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18,
	20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 31, 32}

func suiteSeed(seed int64) int64 {
	n := int64(len(suiteSeeds))
	return suiteSeeds[(seed%n+n)%n]
}

// suitePass runs experiments es once, sequentially, and checks the
// verdicts and, against ref when given, the bytes.
func suitePass(res *result, es []experiment.Experiment, opt experiment.Options, ref []byte) ([]byte, time.Duration) {
	var buf bytes.Buffer
	t0 := time.Now()
	out, _ := experiment.RunSuite(&buf, es, opt, 1) // failures are in out; checkSuite reports them
	d := time.Since(t0)
	res.attempted += int64(len(es))
	if err := checkSuite(out, buf.Bytes(), ref); err != nil {
		res.failOp(err.Error())
	}
	return buf.Bytes(), d
}

func runSuite(cfg config) (*result, error) {
	res := newResult(cfg)
	opt := experiment.Options{Seed: suiteSeed(cfg.seed), SeedSet: true}
	all := experiment.All()
	res.note("suite", fmt.Sprintf("%d experiments, full budget, workers=1, Options.Seed=%d", len(all), opt.Seed))
	m := res.metrics

	// Set-up is the reference pass every later pass must reproduce byte
	// for byte; it also pays the process's cold costs (heap growth, first
	// touches), which the timed passes then do not.
	ref, d := suitePass(res, all, opt, nil)
	m.set("setup_s", d.Seconds())

	// A traced run spends most of its time on the per-experiment rounds.
	budget := cfg.seconds
	if cfg.traced {
		budget /= 3
	}
	var passes outcomes
	u0 := readUsage()
	start := time.Now()
	for passes.n() == 0 || time.Since(start).Seconds() < budget {
		_, d := suitePass(res, all, opt, ref)
		passes.add(ms(d))
	}
	elapsed := time.Since(start)
	u1 := readUsage()
	runtimeMetrics(m, u0, u1, int64(passes.n()*len(all)))
	m.set("peak_rss_mb", peakRSSMiB())
	m.set("ops_per_s", float64(passes.n())/elapsed.Seconds())
	p50, p90 := passes.p50(), passes.upper(0.9)
	m.set("op_p50_ms", p50.Value)
	m.set("op_p90_ms", p90.Value)
	res.alias("suite_s", "s", p50.Value/1e3, &p50)
	res.alias("suite_slowest_s", "s", p90.Value/1e3, &p90)
	if cfg.traced {
		if err := suiteLayers(cfg, res, all, opt, ref, p50.Value/1e3); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// suiteLayers runs each experiment alone through RunSuite, as many
// rounds as fit in the run, and reports each one's median time.
func suiteLayers(cfg config, res *result, all []experiment.Experiment, opt experiment.Options, ref []byte, suiteS float64) error {
	m := res.metrics
	rec := newRecorder()
	times := make([][]float64, len(all))
	var rounds []float64
	start := time.Now()
	for len(rounds) == 0 || time.Since(start).Seconds() < cfg.seconds*2/3 {
		trace := rec.newID()
		r0 := time.Now()
		var got []byte
		for i, e := range all {
			e0 := time.Now()
			b, d := suitePass(res, []experiment.Experiment{e}, opt, nil)
			rec.add(trace, 0, trace, "experiment."+e.ID, e0, time.Now())
			times[i] = append(times[i], d.Seconds())
			got = append(got, b...)
		}
		rec.add(trace, trace, 0, "suite.round", r0, time.Now())
		rounds = append(rounds, time.Since(r0).Seconds())
		if !bytes.Equal(got, ref) {
			res.failOp(fmt.Sprintf("experiments run alone differ from the suite pass at byte %d", firstDiff(got, ref)))
		}
	}
	var sum float64
	for i, e := range all {
		v := median(times[i])
		sum += v
		m.set(fmt.Sprintf("experiment.%s_s", e.ID), v)
	}
	m.set("trace.overhead_frac", median(rounds)/suiteS-1)
	res.note("experiment_sum", fmt.Sprintf("Σ experiment.E*_s = %.4f s vs suite_s = %.4f s (%+.2f%%)", sum, suiteS, 100*(sum/suiteS-1)))

	// The suite hides its solver calls inside experiments; the game
	// layer is timed on the climb workload's seeded starting profile.
	p, _ := climbInputs(cfg.seed)
	var solves outcomes
	var iters []float64
	ws := game.NewWorkspace()
	for range 9 {
		t0 := time.Now()
		nr, err := game.SolveNashWS(context.Background(), ws, alloc.FairShare{}, p.us, p.rates, serviceNash)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		solves.add(ms(time.Since(t0)))
		iters = append(iters, float64(nr.Iters))
	}
	m.set("game.solve_ms", solves.p50().Value)
	m.set("game.solve_p99_ms", solves.tail().Value)
	m.set("game.iters", median(iters))
	keyMetric(m, cfg.seed)
	zeroLayers(m, "service.", "http.", "loadgen.")
	spans := rec.snapshot()
	path, err := writeSpans(cfg.traceDir, fmt.Sprintf("suite-seed%d.jsonl", cfg.seed), spans)
	if err != nil {
		return err
	}
	res.note("spans", fmt.Sprintf("%d written to %s", len(spans), path))
	return nil
}
