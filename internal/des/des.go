// Package des is a discrete-event simulator for the paper's switch model: a
// single exponential server of rate 1 fed by independent Poisson sources.
//
// Because service requirements are exponential and preemption is allowed,
// the system is a continuous-time Markov chain whatever the (work-
// conserving, non-anticipating) discipline does: the state advances with a
// single exponential clock of rate Σλ + 1{busy}, and disciplines differ
// only in WHICH queued packet completes at a departure epoch.  The event
// loop below exploits this, so the simulation is exact, not an
// approximation — sampling noise is the only error source, which is what
// makes the DES a sharp validator for the analytic allocation functions
// (Table 1 in particular).
package des

import (
	"context"
	"errors"
	"math"
	"math/rand"

	"greednet/internal/randdist"
	"greednet/internal/stats"
)

// Packet is one queued job.
type Packet struct {
	// User is the source index.
	User int
	// Arrive is the arrival timestamp.
	Arrive float64
	// Class is the priority class assigned at arrival (used by priority
	// disciplines; 0 otherwise).
	Class int
}

// Discipline picks which packet the (memoryless) server completes at each
// departure epoch.  Implementations are single-goroutine; the Simulator
// drives them sequentially.
type Discipline interface {
	// Name identifies the discipline.
	Name() string
	// Reset prepares for a fresh run with the given source rates.  The rng
	// is owned by the simulator and shared for the whole run.
	Reset(rates []float64, rng *rand.Rand)
	// Enqueue admits an arriving packet.
	Enqueue(p Packet)
	// Dequeue removes and returns the packet the server completes now.
	// It is called only when Len() > 0.
	Dequeue() Packet
	// Len reports the number of queued packets.
	Len() int
}

// Config parameterizes a simulation run.
type Config struct {
	// Rates are the per-user Poisson arrival rates; the server has rate 1,
	// so Σ Rates < 1 is required for stability.
	Rates []float64
	// Discipline is the service discipline under test.
	Discipline Discipline
	// Horizon is the simulated time after warmup; default 2e5.
	Horizon float64
	// Warmup is the initial period excluded from statistics; default 5%
	// of Horizon.
	Warmup float64
	// Seed seeds the run's random source.
	Seed int64
	// Batches is the number of batch-means segments for confidence
	// intervals; default 20.
	Batches int
	// OnDeparture, when non-nil, is invoked for every post-warmup
	// departure with the departing packet and the departure time (e.g. a
	// Tracer's Observe method).
	OnDeparture func(p Packet, depart float64)
}

// Result carries the measured per-user statistics.
type Result struct {
	// AvgQueue is the time-averaged number of user-i packets in the system
	// — the paper's congestion c_i.
	AvgQueue []float64
	// QueueCI95 is the batch-means 95% half-width for AvgQueue.
	QueueCI95 []float64
	// AvgDelay is the mean sojourn time of departed user-i packets.
	AvgDelay []float64
	// Throughput is the measured departure rate of user i.
	Throughput []float64
	// TotalAvgQueue is the time-averaged total queue (should match
	// g(Σr) = Σr/(1−Σr) for any work-conserving discipline).
	TotalAvgQueue float64
	// Arrivals and Departures count post-warmup events.
	Arrivals, Departures int64
	// Duration is the measured (post-warmup) time span.
	Duration float64
}

// ErrBadConfig reports an unusable configuration.
var ErrBadConfig = errors.New("des: bad config")

// validSpan reports whether a Horizon/Warmup value is usable: NaN and
// ±Inf would silently poison every time average (yielding all-NaN
// statistics with a nil error), so they are rejected up front; negative
// and zero values remain "use the default".
func validSpan(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0)
}

// Run simulates the switch and returns the measured statistics.
func Run(cfg Config) (Result, error) {
	return RunCtx(context.Background(), cfg)
}

// RunCtx is Run under a context, polled every few thousand events (see
// ctxGate).  A canceled run returns a zero Result with the typed
// core.ErrCanceled / core.ErrDeadline: partial time averages from a
// truncated horizon are not unbiased estimates, so none are reported.
func RunCtx(ctx context.Context, cfg Config) (Result, error) {
	n := len(cfg.Rates)
	if cfg.Discipline == nil {
		return Result{}, ErrBadConfig
	}
	total, err := checkConfig(cfg.Rates, &cfg.Horizon, &cfg.Warmup, &cfg.Batches)
	if err != nil {
		return Result{}, err
	}

	rng := randdist.NewRand(cfg.Seed)
	d := cfg.Discipline
	d.Reset(cfg.Rates, rng)

	end := cfg.Warmup + cfg.Horizon
	lq := newLazyQueues(n, cfg.Batches, cfg.Warmup, end, cfg.Horizon/float64(cfg.Batches))
	var totalAvg stats.TimeAverage
	cum := cumRates(cfg.Rates) // prefix sums for O(log N) source picks
	delaySum := make([]float64, n)
	departed := make([]int64, n)
	var res Result

	// Each iteration consumes exactly one (ExpFloat64, Float64) pair: the
	// holding time and the event pick.  A stream-free discipline never
	// touches the rng mid-run, so the pairs prefetch in full blocks;
	// otherwise block size 1 lands every draw at its unbatched stream
	// position.  Either way the run is byte-identical to the historical
	// draw-per-event loop (the final pair's uniform may be drawn past the
	// break, but the rng is per-run, so nothing can observe it).
	var pb randdist.PairBatch
	pb.Init(rng, randdist.BlockSize(streamFree(d)))

	t := 0.0
	inSystem := 0
	gate := ctxGate{ctx: ctx}
	for t < end {
		if err := gate.Err(); err != nil {
			return Result{}, err
		}
		rate := total
		if inSystem > 0 {
			rate += 1
		}
		e, uu := pb.Pair()
		dt := e / rate
		// Split the elapsed interval across warmup/measurement boundary.
		// Only the O(1) total-queue average advances per event; the per-user
		// integrals advance lazily at count changes (lq.bump below).
		tNext := t + dt
		if tNext > cfg.Warmup {
			lo := max(t, cfg.Warmup)
			hi := min(tNext, end)
			if hi > lo {
				totalAvg.Accumulate(float64(inSystem), hi-lo)
			}
		}
		t = tNext
		if t >= end {
			break
		}
		// Choose the event type.
		u := uu * rate
		if u < total {
			// Arrival: pick the source by binary search on the rate prefix
			// sums (the same source the linear scan chose for this draw).
			i := pickSource(cum, u)
			d.Enqueue(Packet{User: i, Arrive: t})
			lq.bump(i, t, 1)
			inSystem++
			if t >= cfg.Warmup {
				res.Arrivals++
			}
		} else if inSystem > 0 {
			p := d.Dequeue()
			lq.bump(p.User, t, -1)
			inSystem--
			if t >= cfg.Warmup {
				res.Departures++
				departed[p.User]++
				delaySum[p.User] += t - p.Arrive
				if cfg.OnDeparture != nil {
					cfg.OnDeparture(p, t)
				}
			}
		}
	}
	return finishResult(res, lq, &totalAvg, delaySum, departed, cfg.Horizon), nil
}

// checkConfig validates what Run, RunG and RunSched share — at least one
// rate, every rate positive, Σ < 1, finite spans — and fills in their
// defaults in place: Horizon 2e5, Warmup 5% of Horizon, 20 batches.  It
// returns Σ rates, summed left to right as cumRates sums them, so the
// total equals the last prefix sum bit for bit.
func checkConfig(rates []float64, horizon, warmup *float64, batches *int) (float64, error) {
	if len(rates) == 0 {
		return 0, ErrBadConfig
	}
	total := 0.0
	for _, r := range rates {
		if r <= 0 || math.IsNaN(r) {
			return 0, ErrBadConfig
		}
		total += r
	}
	if total >= 1 || !validSpan(*horizon) || !validSpan(*warmup) {
		return 0, ErrBadConfig
	}
	if *horizon <= 0 {
		*horizon = 2e5
	}
	if *warmup <= 0 {
		*warmup = 0.05 * *horizon
	}
	if *batches <= 0 {
		*batches = 20
	}
	return total, nil
}

// finishResult completes res, whose Arrivals and Departures the event
// loop counted, for Run, RunG and RunSched alike: it closes lq's open
// segments, then fills in each user's queue average with its batch-means
// CI, mean delay (NaN with no departure) and throughput over the horizon.
func finishResult(res Result, lq *lazyQueues, totalAvg *stats.TimeAverage, delaySum []float64, departed []int64, horizon float64) Result {
	lq.finish()
	n := len(departed)
	res.AvgQueue = make([]float64, n)
	res.QueueCI95 = make([]float64, n)
	res.AvgDelay = make([]float64, n)
	res.Throughput = make([]float64, n)
	for i := 0; i < n; i++ {
		res.AvgQueue[i] = lq.avgQueue(i)
		res.QueueCI95[i] = batchCI(lq.batchRow(i), lq.batchLen)
		if departed[i] > 0 {
			res.AvgDelay[i] = delaySum[i] / float64(departed[i])
		} else {
			res.AvgDelay[i] = math.NaN()
		}
		res.Throughput[i] = float64(departed[i]) / horizon
	}
	res.TotalAvgQueue = totalAvg.Value()
	res.Duration = horizon
	return res
}

// batchCI converts per-batch queue integrals into a 95% half-width for the
// run-level time average.
func batchCI(integrals []float64, batchLen float64) float64 {
	means := make([]float64, len(integrals))
	for i, v := range integrals {
		means[i] = v / batchLen
	}
	return stats.CI95(means)
}
