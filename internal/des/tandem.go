package des

import (
	"context"
	"math"

	"greednet/internal/randdist"
	"greednet/internal/stats"
)

// Tandem simulation for the §5.4 network generalization: two exponential
// stations in series.  "Long" users traverse station A then station B;
// cross users visit only their own station.  The paper's network analysis
// treats each station's input as Poisson at the source rate; this
// simulator measures how good that approximation is.  By Burke's theorem
// the output of a class-blind M/M/1 station IS Poisson, so a FIFO tandem
// matches the approximation exactly (Jackson product form), while
// class-aware disciplines like the Fair Share splitter produce non-Poisson
// outputs and a measurable (small) drift.

// TandemConfig parameterizes a two-station tandem run.
type TandemConfig struct {
	// LongRates are the Poisson rates of users routed A → B.
	LongRates []float64
	// CrossA and CrossB are the rates of users local to each station.
	CrossA, CrossB []float64
	// NewDisc builds a fresh discipline instance per station (e.g.
	// func() Discipline { return &FairShareSplitter{} }).
	NewDisc func() Discipline
	// Horizon, Warmup, Seed behave as in Config.
	Horizon, Warmup float64
	Seed            int64
}

// TandemResult reports per-user, per-station measurements.  Users are
// indexed globally: long users first, then cross-A, then cross-B.
type TandemResult struct {
	// QueueA and QueueB are time-averaged per-user queue lengths at each
	// station (zero where a user does not visit).
	QueueA, QueueB []float64
	// TotalQueue is the per-user sum across its route.
	TotalQueue []float64
	// EndToEndDelay is the mean total sojourn of long users' packets (NaN
	// for cross users' entries).
	EndToEndDelay []float64
	// Departures counts post-warmup route completions per user.
	Departures []int64
}

// RunTandemCtx simulates the tandem.  Both stations must be stable:
// Σ(long)+Σ(crossA) < 1 and Σ(long)+Σ(crossB) < 1.  See RunCtx for the
// cancellation contract (typed error, no partial statistics).
func RunTandemCtx(ctx context.Context, cfg TandemConfig) (TandemResult, error) {
	nLong, nA, nB := len(cfg.LongRates), len(cfg.CrossA), len(cfg.CrossB)
	nUsers := nLong + nA + nB
	if nUsers == 0 || cfg.NewDisc == nil || nLong == 0 {
		return TandemResult{}, ErrBadConfig
	}
	sumLong := 0.0
	for _, r := range cfg.LongRates {
		if r <= 0 || math.IsNaN(r) {
			return TandemResult{}, ErrBadConfig
		}
		sumLong += r
	}
	loadA, loadB := sumLong, sumLong
	for _, r := range cfg.CrossA {
		if r <= 0 || math.IsNaN(r) {
			return TandemResult{}, ErrBadConfig
		}
		loadA += r
	}
	for _, r := range cfg.CrossB {
		if r <= 0 || math.IsNaN(r) {
			return TandemResult{}, ErrBadConfig
		}
		loadB += r
	}
	if loadA >= 1 || loadB >= 1 {
		return TandemResult{}, ErrBadConfig
	}
	if !validSpan(cfg.Horizon) || !validSpan(cfg.Warmup) {
		return TandemResult{}, ErrBadConfig
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = 2e5
	}
	if cfg.Warmup <= 0 {
		cfg.Warmup = 0.05 * cfg.Horizon
	}

	// Station-local user tables.  Station A serves long users (local 0..
	// nLong−1) then cross-A; station B serves long users then cross-B.
	ratesA := make([]float64, nLong+nA)
	ratesB := make([]float64, nLong+nB)
	copy(ratesA, cfg.LongRates)
	copy(ratesA[nLong:], cfg.CrossA)
	copy(ratesB, cfg.LongRates)
	copy(ratesB[nLong:], cfg.CrossB)
	globalA := make([]int, len(ratesA)) // station-A local → global user
	globalB := make([]int, len(ratesB))
	for i := range globalA {
		globalA[i] = i // long then cross-A
	}
	for i := 0; i < nLong; i++ {
		globalB[i] = i
	}
	for i := 0; i < nB; i++ {
		globalB[nLong+i] = nLong + nA + i
	}

	rng := randdist.NewRand(cfg.Seed)
	discA := cfg.NewDisc()
	discB := cfg.NewDisc()
	discA.Reset(ratesA, rng)
	discB.Reset(ratesB, rng)

	// External arrival streams: all of station A's users plus cross-B.
	extRates := make([]float64, 0, nUsers)
	extRates = append(extRates, ratesA...)     // long + cross-A (arrive at A)
	extRates = append(extRates, cfg.CrossB...) // arrive at B
	extTotal := 0.0
	for _, r := range extRates {
		extTotal += r
	}
	// Prefix sums for O(log N) stream picks; cumExt[len-1] accumulates in
	// the same order as extTotal above, so the binary search picks exactly
	// the stream the historical linear scan chose for every draw.
	cumExt := cumRates(extRates)

	end := cfg.Warmup + cfg.Horizon
	countsA := make([]int, nUsers)
	countsB := make([]int, nUsers)
	avgA := make([]stats.TimeAverage, nUsers)
	avgB := make([]stats.TimeAverage, nUsers)
	delaySum := make([]float64, nUsers)
	departed := make([]int64, nUsers)
	busyA, busyB := 0, 0

	// One (ExpFloat64, Float64) pair per iteration, batch-safe only when
	// BOTH station disciplines are stream-free; see RunCtx.
	var pb randdist.PairBatch
	pb.Init(rng, randdist.BlockSize(streamFree(discA) && streamFree(discB)))

	t := 0.0
	gate := ctxGate{ctx: ctx}
	for t < end {
		if err := gate.Err(); err != nil {
			return TandemResult{}, err
		}
		rate := extTotal
		if busyA > 0 {
			rate++
		}
		if busyB > 0 {
			rate++
		}
		e, uu := pb.Pair()
		dt := e / rate
		tNext := t + dt
		if tNext > cfg.Warmup {
			lo := max(t, cfg.Warmup)
			hi := min(tNext, end)
			if span := hi - lo; span > 0 {
				for u := 0; u < nUsers; u++ {
					avgA[u].Accumulate(float64(countsA[u]), span)
					avgB[u].Accumulate(float64(countsB[u]), span)
				}
			}
		}
		t = tNext
		if t >= end {
			break
		}
		u := uu * rate
		switch {
		case u < extTotal:
			// External arrival: pick the stream by binary search on the
			// prefix sums (same pick as the old linear scan, clamped to the
			// last stream just as the scan's bounds check was).
			i := pickSource(cumExt, u)
			if i < len(ratesA) {
				// Arrives at station A (long or cross-A); local index i.
				discA.Enqueue(Packet{User: i, Arrive: t})
				countsA[globalA[i]]++
				busyA++
			} else {
				// Cross-B user; local index at B is nLong + (i − len(ratesA)).
				local := nLong + (i - len(ratesA))
				discB.Enqueue(Packet{User: local, Arrive: t})
				countsB[globalB[local]]++
				busyB++
			}
		case u < extTotal+boolRate(busyA):
			// Station A completion.
			p := discA.Dequeue()
			g := globalA[p.User]
			countsA[g]--
			busyA--
			if p.User < nLong {
				// Long user: forward to B, preserving the original arrival
				// time for end-to-end delay.
				discB.Enqueue(Packet{User: p.User, Arrive: p.Arrive})
				countsB[g]++
				busyB++
			} else if t >= cfg.Warmup {
				departed[g]++
				delaySum[g] += t - p.Arrive
			}
		default:
			// Station B completion.
			p := discB.Dequeue()
			g := globalB[p.User]
			countsB[g]--
			busyB--
			if t >= cfg.Warmup {
				departed[g]++
				delaySum[g] += t - p.Arrive
			}
		}
	}

	res := TandemResult{
		QueueA:        make([]float64, nUsers),
		QueueB:        make([]float64, nUsers),
		TotalQueue:    make([]float64, nUsers),
		EndToEndDelay: make([]float64, nUsers),
		Departures:    departed,
	}
	//lint:allow ctxflow O(n) post-run stats assembly over per-user accumulators; the event loop above already honored the deadline
	for u := 0; u < nUsers; u++ {
		res.QueueA[u] = avgA[u].Value()
		res.QueueB[u] = avgB[u].Value()
		res.TotalQueue[u] = res.QueueA[u] + res.QueueB[u]
		if departed[u] > 0 {
			res.EndToEndDelay[u] = delaySum[u] / float64(departed[u])
		} else {
			res.EndToEndDelay[u] = math.NaN()
		}
	}
	return res, nil
}

func boolRate(busy int) float64 {
	if busy > 0 {
		return 1
	}
	return 0
}
