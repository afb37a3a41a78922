package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"greednet/internal/alloc"
	"greednet/internal/game"
	"greednet/internal/selfish"
	"greednet/internal/service"
)

// The climb workload: the paper's closed loop against greedd.
const (
	climbAgents = 128
	// climbLo and climbHi clamp every agent's demand.  climbHi is below
	// 1/climbAgents, so Theorem-8 admission (N·r < 1) never refuses.
	climbLo = 0.0005
	climbHi = 0.0075
	// Agents start in [climbStartLo, climbStartHi] with a first step of
	// climbStep0.  Every seed's starting profile in this range converges
	// in the same number of best-response rounds, so the seed changes
	// the inputs but not the amount of solver work.  The equilibrium
	// greedd reports does not depend on the demands posted (Theorem 4),
	// so nothing pulls a climber back: it walks at most 2·climbStep0·√k
	// in k steps and reaches no clamp within 1500 steps, far more than a
	// run makes.  A clamped agent would re-post its rate and turn solves
	// into cache hits, making the workload drift during the run.
	climbStartLo = 0.0025
	climbStartHi = 0.0035
	climbStep0   = 2e-5
	// climbSetups is how many times set-up is repeated for setup_s.
	climbSetups = 25
)

// climbInputs derives everything the climb workload feeds the program
// from the seed.
func climbInputs(seed int64) (population, []selfish.AgentOptions) {
	rng := rand.New(rand.NewSource(seed))
	p := genPopulation(rng, "a", climbAgents, climbStartLo, climbStartHi)
	opts := make([]selfish.AgentOptions, climbAgents)
	for i := range opts {
		opts[i] = selfish.AgentOptions{
			Rate0:   p.rates[i],
			Step0:   climbStep0,
			Lo:      climbLo,
			Hi:      climbHi,
			Utility: p.specs[i],
			U:       p.us[i],
			Seed:    rng.Int63(),
		}
	}
	return p, opts
}

// climbPhase is one timed stretch of agent steps.
type climbPhase struct {
	steps   outcomes
	elapsed time.Duration
	iters   []float64 // SolveResponse.Iters of checked solves
	pending []pendingReplay
	replays outcomes // replayed solve times (traced)
	u0, u1  usage
	st      statsDelta
}

func (c *climbPhase) rate() float64 { return float64(len(c.steps.ms)) / c.elapsed.Seconds() }

// climber runs the agents; posted tracks the demand each agent last
// published, which the traced run replays.
type climber struct {
	g      *greedd
	p      population
	agents []*selfish.Agent
	res    *result
	posted []float64
}

// phase steps the agents round-robin for d; with rec non-nil every step
// is traced and the profile of every solver run is kept for replay.
func (c *climber) phase(d time.Duration, rec *recorder) (*climbPhase, error) {
	ph := &climbPhase{}
	var err error
	if ph.st.before, err = c.g.stats(); err != nil {
		return nil, err
	}
	c.g.rec.Store(rec)
	ph.u0 = readUsage()
	start := time.Now()
	for i := 0; time.Since(start) < d; i = (i + 1) % len(c.agents) {
		c.step(i, rec, ph)
	}
	ph.elapsed = time.Since(start)
	ph.u1 = readUsage()
	c.g.rec.Store(nil)
	if ph.st.after, err = c.g.stats(); err != nil {
		return nil, err
	}
	return ph, nil
}

// step runs agent i's control-loop iteration and checks the solve it
// received after the step's clock has stopped.
func (c *climber) step(i int, rec *recorder, ph *climbPhase) {
	a := c.agents[i]
	o := &opCtx{trace: rec.newID()}
	o.parent = o.trace
	rate := a.Rate()
	t0 := time.Now()
	sr, err := a.Step(withOp(context.Background(), o))
	t1 := time.Now()
	rec.add(o.trace, o.trace, 0, "climb.step", t0, t1)
	c.res.attempted++
	if sr.Admitted {
		c.posted[i] = rate
	}
	if err != nil || sr.Shed != "" || o.solveBody == nil {
		ph.steps.fail()
		c.res.failOp(fmt.Sprintf("agent %s step: err=%v shed=%q", a.ID(), err, sr.Shed))
		return
	}
	ph.steps.add(ms(t1.Sub(t0)))
	var resp service.SolveResponse
	if err := json.Unmarshal(o.solveBody, &resp); err != nil {
		c.res.failOp(fmt.Sprintf("agent %s: undecodable solve body: %v", a.ID(), err))
		return
	}
	if err := checkSolve(&resp, climbAgents); err != nil {
		c.res.failOp(fmt.Sprintf("agent %s: %v", a.ID(), err))
		return
	}
	ph.iters = append(ph.iters, float64(resp.Iters))
	if rec != nil && !resp.Cached && !resp.Coalesced {
		ph.pending = append(ph.pending, pendingReplay{trace: o.trace, rates: append([]float64(nil), c.posted...)})
	}
}

// pendingReplay is the profile one solver run was asked for, as this
// benchmark last saw each agent post it.
type pendingReplay struct {
	trace uint64
	rates []float64
}

// replay re-solves every recorded profile with the service's solver and
// options, one at a time after the timed phase, so the game layer is
// timed without contention from the load it served.
func (c *climber) replay(ph *climbPhase, rec *recorder) error {
	ws := game.NewWorkspace()
	for _, p := range ph.pending {
		r0 := time.Now()
		if _, err := game.SolveNashWS(context.Background(), ws, alloc.FairShare{}, c.p.us, p.rates, serviceNash); err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		r1 := time.Now()
		rec.add(p.trace, 0, p.trace, "game.solve", r0, r1)
		ph.replays.add(ms(r1.Sub(r0)))
	}
	return nil
}

func runClimb(cfg config) (*result, error) {
	res := newResult(cfg)
	p, opts := climbInputs(cfg.seed)
	g, setups, err := setUp(res, cfg.traced, p, climbSetups, false)
	if err != nil {
		return nil, err
	}
	c := &climber{g: g, p: p, res: res, posted: append([]float64(nil), p.rates...)}
	for i := range opts {
		c.agents = append(c.agents, selfish.NewAgent(g.base, p.ids[i], g.hc, opts[i]))
	}
	res.note("loop", fmt.Sprintf("closed, 1 driver, %d agents, specs %v round-robin, start rates in [%v, %v], clamps [%v, %v]",
		climbAgents, specs, climbStartLo, climbStartHi, climbLo, climbHi))
	res.note("transport", fmt.Sprintf("HTTP/1.1 over TCP loopback %s, at most %d connections", g.ln.Addr(), conns))

	d := time.Duration(cfg.seconds * float64(time.Second))
	var ref, ph *climbPhase
	if cfg.traced {
		// The untraced reference stretch measures what tracing costs and
		// gives the runtime.* numbers without the tracer's own work.
		if ref, err = c.phase(d/2, nil); err != nil {
			return nil, errors.Join(err, g.stop())
		}
		rec := newRecorder()
		if ph, err = c.phase(d/2, rec); err != nil {
			return nil, errors.Join(err, g.stop())
		}
		if err := c.layerMetrics(cfg, res, ref, ph, rec); err != nil {
			return nil, errors.Join(err, g.stop())
		}
	} else if ph, err = c.phase(d, nil); err != nil {
		return nil, errors.Join(err, g.stop())
	}
	res.note("connections_opened", fmt.Sprint(g.opened.Load()))
	if err := g.stop(); err != nil {
		return nil, fmt.Errorf("stop: %w", err)
	}
	m := res.metrics
	rt := ph
	if ref != nil {
		rt = ref
	}
	runtimeMetrics(m, rt.u0, rt.u1, int64(len(rt.steps.ms)))
	m.set("setup_s", median(setups))
	m.set("peak_rss_mb", peakRSSMiB())
	m.set("ops_per_s", ph.rate())
	p50, p90, tail := ph.steps.p50(), ph.steps.upper(0.9), ph.steps.tail()
	m.set("op_p50_ms", p50.Value)
	m.set("op_p90_ms", p90.Value)
	res.alias("steps_per_s", "1/s", ph.rate(), nil)
	res.alias("step_p50_ms", "ms", p50.Value, &p50)
	res.alias("step_p90_ms", "ms", p90.Value, &p90)
	res.alias("step_p99_ms", "ms", tail.Value, &tail)
	return res, nil
}

// layerMetrics fills the per-layer metrics of a traced climb run.
func (c *climber) layerMetrics(cfg config, res *result, ref, ph *climbPhase, rec *recorder) error {
	m := res.metrics
	if err := c.replay(ph, rec); err != nil {
		return err
	}
	spans := rec.snapshot()
	c.g.handlerMetrics(m, spans)
	ran := byName(spans, "service.solve", "ran", nil).p50()
	res.note("solver_runs", fmt.Sprintf("service.solve handler p50 over calls that ran the solver = %.4f ms (n=%d) vs game.solve replay p50 = %.4f ms (n=%d)",
		ran.Value, ran.N, ph.replays.p50().Value, ph.replays.n()))
	ph.st.metrics(m, 3*int64(ph.steps.n()))
	m.set("game.solve_ms", ph.replays.p50().Value)
	m.set("game.solve_p99_ms", ph.replays.tail().Value)
	if len(ph.iters) > 0 {
		m.set("game.iters", median(ph.iters))
	}
	m.set("trace.overhead_frac", ref.rate()/ph.rate()-1)
	zeroLayers(m, "experiment.", "loadgen.")
	keyMetric(m, cfg.seed)
	path, err := writeSpans(cfg.traceDir, fmt.Sprintf("climb-seed%d.jsonl", cfg.seed), spans)
	if err != nil {
		return err
	}
	res.note("spans", fmt.Sprintf("%d written to %s", len(spans), path))
	return nil
}
