package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"greednet/internal/alloc"
	"greednet/internal/game"
	"greednet/internal/profkey"
	"greednet/internal/service"
)

// The poll workload: an open loop of cached reads against a large,
// settled population.
const (
	pollClients = 384
	// pollRate is the fixed offered load in requests per second, low
	// enough that the process stays well below processor saturation.
	pollRate = 300.0
	// pollSetups is how many times set-up is repeated for setup_s.
	pollSetups = 5
	// pollSolveShare and pollUpdateShare split the request mix; the
	// rest are congestion reads.
	pollSolveShare  = 0.45
	pollUpdateShare = 0.05
)

// pollPopulation draws the poll clients: fixed rates in
// [0.2, 0.95)/pollClients, so every N·r_i < 1.
func pollPopulation(seed int64) population {
	return genPopulation(rand.New(rand.NewSource(seed)), "p", pollClients, 0.2/pollClients, 0.95/pollClients)
}

// arrival is one scheduled request.
type arrival struct {
	at     time.Duration // due time after the phase start
	kind   byte          // 's'olve, 'c'ongestion or 'u'pdate
	client int
}

// schedule draws a Poisson arrival sequence at rate per second over d,
// conditioned on its expected count: round(rate·d) due times uniform on
// [0, d), sorted — the arrival times of a Poisson process given its
// count.  Fixing the count keeps the offered load the same for every
// seed.
func schedule(rng *rand.Rand, rate float64, d time.Duration, clients int) []arrival {
	out := make([]arrival, int(math.Round(rate*d.Seconds())))
	for k := range out {
		out[k].at = time.Duration(rng.Int63n(int64(d)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].at < out[j].at })
	for k := range out {
		out[k].client = rng.Intn(clients)
		switch u := rng.Float64(); {
		case u < pollSolveShare:
			out[k].kind = 's'
		case u < pollSolveShare+pollUpdateShare:
			out[k].kind = 'u'
		default:
			out[k].kind = 'c'
		}
	}
	return out
}

// openLoop sends the scheduled requests from senders goroutines.  Each
// request is timed from when it was due, so a stall also charges the
// requests queued behind it; late records how far after its due time
// each request was actually sent.  do returns an error for a failed or
// refused request.
func openLoop(start time.Time, sched []arrival, senders int, do func(k int) error) (lat, late outcomes) {
	var next atomic.Int64
	per := make([][2]outcomes, senders)
	var wg sync.WaitGroup
	for s := range senders {
		wg.Add(1)
		//lint:fanout load-driver sends scheduled requests until the schedule is exhausted, joined below
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(sched) {
					return
				}
				due := start.Add(sched[k].at)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				per[s][1].add(ms(time.Since(due)))
				err := do(k)
				if err != nil {
					per[s][0].fail()
					continue
				}
				per[s][0].add(ms(time.Since(due)))
			}
		}()
	}
	wg.Wait()
	for s := range per {
		lat.merge(&per[s][0])
		late.merge(&per[s][1])
	}
	return lat, late
}

// poller issues the poll workload's requests and checks every answer.
type poller struct {
	g   *greedd
	p   population
	res *result
	mu  sync.Mutex
	// iters holds SolveResponse.Iters of checked solves.
	iters []float64
}

func (q *poller) fail(msg string) {
	q.mu.Lock()
	q.res.failOp(msg)
	q.mu.Unlock()
}

// request performs scheduled request a and checks its answer after the
// clock has stopped (the decode is part of the request, as for any
// client).  trace is the request's trace id (0 untraced).
func (q *poller) request(a arrival, trace uint64) (check func() error, err error) {
	o := &opCtx{trace: trace, parent: trace}
	ctx := withOp(context.Background(), o)
	id := q.p.ids[a.client]
	switch a.kind {
	case 's':
		var sr service.SolveResponse
		code, err := q.g.call(ctx, "POST", "/v1/solve", service.SolveRequest{Client: id}, &sr)
		if err != nil || code != http.StatusOK {
			return nil, fmt.Errorf("solve as %s: status %d, %v", id, code, err)
		}
		return func() error {
			q.mu.Lock()
			q.iters = append(q.iters, float64(sr.Iters))
			q.mu.Unlock()
			if !sr.Cached {
				return fmt.Errorf("solve as %s was not served from the cache", id)
			}
			return checkSolve(&sr, pollClients)
		}, nil
	case 'u':
		var ur service.UpdateResponse
		code, err := q.g.call(ctx, "POST", "/v1/update", service.UpdateRequest{Client: id, Rate: q.p.rates[a.client]}, &ur)
		if err != nil || code != http.StatusOK {
			return nil, fmt.Errorf("update %s: status %d, %v", id, code, err)
		}
		return func() error {
			if !ur.Admitted || ur.Clients != pollClients {
				return fmt.Errorf("update %s: admitted=%v clients=%d", id, ur.Admitted, ur.Clients)
			}
			return nil
		}, nil
	default:
		var cr service.CongestionResponse
		code, err := q.g.call(ctx, "GET", "/v1/congestion?client="+id, nil, &cr)
		if err != nil || code != http.StatusOK {
			return nil, fmt.Errorf("congestion %s: status %d, %v", id, code, err)
		}
		return func() error { return checkCongestion(&cr, id) }, nil
	}
}

// pollPhase is one timed stretch of the open loop.
type pollPhase struct {
	lat, late outcomes
	u0, u1    usage
	st        statsDelta
	elapsed   time.Duration
}

// phase runs a fresh schedule for d; with rec non-nil every request is
// traced.
func (q *poller) phase(rng *rand.Rand, d time.Duration, rec *recorder) (*pollPhase, error) {
	sched := schedule(rng, pollRate, d, pollClients)
	ph := &pollPhase{}
	var err error
	if ph.st.before, err = q.g.stats(); err != nil {
		return nil, err
	}
	q.g.rec.Store(rec)
	ph.u0 = readUsage()
	start := time.Now()
	ph.lat, ph.late = openLoop(start, sched, conns, func(k int) error {
		trace := rec.newID()
		t0 := time.Now()
		check, err := q.request(sched[k], trace)
		rec.add(trace, trace, 0, "poll.request", t0, time.Now())
		q.mu.Lock()
		q.res.attempted++
		q.mu.Unlock()
		if err == nil {
			err = check()
		}
		if err != nil {
			q.fail(err.Error())
		}
		return err
	})
	ph.elapsed = time.Since(start)
	ph.u1 = readUsage()
	q.g.rec.Store(nil)
	if ph.st.after, err = q.g.stats(); err != nil {
		return nil, err
	}
	return ph, nil
}

func runPoll(cfg config) (*result, error) {
	res := newResult(cfg)
	p := pollPopulation(cfg.seed)
	g, setups, err := setUp(res, cfg.traced, p, pollSetups, true)
	if err != nil {
		return nil, err
	}
	q := &poller{g: g, p: p, res: res}
	res.note("loop", fmt.Sprintf("open, seeded Poisson at %v req/s offered, %d senders; mix %.0f%% solve, %.0f%% update (unchanged rate), rest congestion",
		pollRate, conns, 100*pollSolveShare, 100*pollUpdateShare))
	res.note("population", fmt.Sprintf("%d clients, specs %v round-robin, fixed rates in [0.2, 0.95)/%d", pollClients, specs, pollClients))
	res.note("transport", fmt.Sprintf("HTTP/1.1 over TCP loopback %s, at most %d connections", g.ln.Addr(), conns))

	rng := rand.New(rand.NewSource(cfg.seed ^ 0x5eed))
	d := time.Duration(cfg.seconds * float64(time.Second))
	var ref, ph *pollPhase
	if cfg.traced {
		if ref, err = q.phase(rng, d/2, nil); err != nil {
			return nil, errors.Join(err, g.stop())
		}
		rec := newRecorder()
		if ph, err = q.phase(rng, d/2, rec); err != nil {
			return nil, errors.Join(err, g.stop())
		}
		if err := q.layerMetrics(cfg, res, ref, ph, rec); err != nil {
			return nil, errors.Join(err, g.stop())
		}
	} else if ph, err = q.phase(rng, d, nil); err != nil {
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
	runtimeMetrics(m, rt.u0, rt.u1, int64(rt.lat.n()))
	m.set("loadgen.late_p99_ms", ph.late.tail().Value)
	m.set("setup_s", median(setups))
	m.set("peak_rss_mb", peakRSSMiB())
	m.set("ops_per_s", float64(len(ph.lat.ms))/ph.elapsed.Seconds())
	p50, p90, tail := ph.lat.p50(), ph.lat.upper(0.9), ph.lat.tail()
	m.set("op_p50_ms", p50.Value)
	m.set("op_p90_ms", p90.Value)
	res.alias("req_p50_ms", "ms", p50.Value, &p50)
	res.alias("req_p90_ms", "ms", p90.Value, &p90)
	res.alias("req_p99_ms", "ms", tail.Value, &tail)
	late := ph.late.tail()
	res.alias("loadgen.late", "ms", late.Value, &late)
	return res, nil
}

// layerMetrics fills the per-layer metrics of a traced poll run.
func (q *poller) layerMetrics(cfg config, res *result, ref, ph *pollPhase, rec *recorder) error {
	m := res.metrics
	spans := rec.snapshot()
	q.g.handlerMetrics(m, spans)
	ph.st.metrics(m, int64(ph.lat.n()))
	if len(q.iters) > 0 {
		m.set("game.iters", median(q.iters))
	}
	// No solve runs in the timed phase; the game layer is timed on a
	// replay of the priming solve, the one solve the run needed.
	r0 := time.Now()
	if _, err := game.SolveNashWS(context.Background(), nil, alloc.FairShare{}, q.p.us, q.p.rates, serviceNash); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	rep := ms(time.Since(r0))
	m.set("game.solve_ms", rep)
	m.set("game.solve_p99_ms", rep)
	m.set("trace.overhead_frac", ph.lat.p50().Value/ref.lat.p50().Value-1)
	zeroLayers(m, "experiment.")
	keyMetric(m, cfg.seed)
	path, err := writeSpans(cfg.traceDir, fmt.Sprintf("poll-seed%d.jsonl", cfg.seed), spans)
	if err != nil {
		return err
	}
	res.note("spans", fmt.Sprintf("%d written to %s", len(spans), path))
	return nil
}

// keyReps is how many times profkey.key_ms times the key.
const keyReps = 101

// keySink keeps the timed key computations from being optimized away.
var keySink string

// keyMetric times profkey.PerUser on the poll population, the key every
// poll cache hit builds.
func keyMetric(m metricSet, seed int64) {
	p := pollPopulation(seed)
	var o outcomes
	for range keyReps {
		t0 := time.Now()
		keySink = profkey.PerUser(p.ids, p.rates, p.specs)
		o.add(ms(time.Since(t0)))
	}
	m.set("profkey.key_ms", o.p50().Value)
}
