package des

import (
	"context"
	"math"
	"testing"

	"greednet/internal/randdist"
	"greednet/internal/stats"
)

// Differential equivalence suite: the memoryless and tandem engines must
// reproduce their frozen draw-per-event predecessors BIT FOR BIT for
// every seeded configuration — same rng consumption, same Result.  The
// references below are verbatim copies of the historical loops (direct
// rng draws, linear stream scan).  Any change to these engines' draw
// order, tie-breaking, or accumulation arithmetic shows up here as a
// bit-level diff.

// refRun is the frozen memoryless engine: identical to RunCtx before
// batched variate generation (one ExpFloat64 and one Float64 drawn
// directly from the rng per iteration).
func refRun(cfg Config) (Result, error) {
	n := len(cfg.Rates)
	if n == 0 || cfg.Discipline == nil {
		return Result{}, ErrBadConfig
	}
	total := 0.0
	for _, r := range cfg.Rates {
		if r <= 0 || math.IsNaN(r) {
			return Result{}, ErrBadConfig
		}
		total += r
	}
	if total >= 1 {
		return Result{}, ErrBadConfig
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = 2e5
	}
	if cfg.Warmup <= 0 {
		cfg.Warmup = 0.05 * cfg.Horizon
	}
	if cfg.Batches <= 0 {
		cfg.Batches = 20
	}

	rng := randdist.NewRand(cfg.Seed)
	d := cfg.Discipline
	d.Reset(cfg.Rates, rng)

	end := cfg.Warmup + cfg.Horizon
	batchLen := cfg.Horizon / float64(cfg.Batches)
	lq := newLazyQueues(n, cfg.Batches, cfg.Warmup, end, batchLen)
	var totalAvg stats.TimeAverage
	cum := cumRates(cfg.Rates)
	delaySum := make([]float64, n)
	departed := make([]int64, n)
	var res Result
	res.AvgQueue = make([]float64, n)
	res.QueueCI95 = make([]float64, n)
	res.AvgDelay = make([]float64, n)
	res.Throughput = make([]float64, n)

	t := 0.0
	inSystem := 0
	for t < end {
		rate := total
		if inSystem > 0 {
			rate += 1
		}
		dt := rng.ExpFloat64() / rate
		tNext := t + dt
		if tNext > cfg.Warmup {
			lo := math.Max(t, cfg.Warmup)
			hi := math.Min(tNext, end)
			if hi > lo {
				totalAvg.Accumulate(float64(inSystem), hi-lo)
			}
		}
		t = tNext
		if t >= end {
			break
		}
		u := rng.Float64() * rate
		if u < total {
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
	lq.finish()

	res.Duration = cfg.Horizon
	for i := 0; i < n; i++ {
		res.AvgQueue[i] = lq.avgQueue(i)
		res.QueueCI95[i] = batchCI(lq.batchRow(i), batchLen)
		if departed[i] > 0 {
			res.AvgDelay[i] = delaySum[i] / float64(departed[i])
		} else {
			res.AvgDelay[i] = math.NaN()
		}
		res.Throughput[i] = float64(departed[i]) / cfg.Horizon
	}
	res.TotalAvgQueue = totalAvg.Value()
	return res, nil
}

// refTandem is the frozen tandem engine: direct draws and the linear
// stream scan the binary search replaced.
func refTandem(cfg TandemConfig) (TandemResult, error) {
	nLong, nA, nB := len(cfg.LongRates), len(cfg.CrossA), len(cfg.CrossB)
	nUsers := nLong + nA + nB
	if nUsers == 0 || cfg.NewDisc == nil || nLong == 0 {
		return TandemResult{}, ErrBadConfig
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = 2e5
	}
	if cfg.Warmup <= 0 {
		cfg.Warmup = 0.05 * cfg.Horizon
	}

	ratesA := make([]float64, nLong+nA)
	ratesB := make([]float64, nLong+nB)
	copy(ratesA, cfg.LongRates)
	copy(ratesA[nLong:], cfg.CrossA)
	copy(ratesB, cfg.LongRates)
	copy(ratesB[nLong:], cfg.CrossB)
	globalA := make([]int, len(ratesA))
	globalB := make([]int, len(ratesB))
	for i := range globalA {
		globalA[i] = i
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

	extRates := make([]float64, 0, nUsers)
	extRates = append(extRates, ratesA...)
	extRates = append(extRates, cfg.CrossB...)
	extTotal := 0.0
	for _, r := range extRates {
		extTotal += r
	}

	end := cfg.Warmup + cfg.Horizon
	countsA := make([]int, nUsers)
	countsB := make([]int, nUsers)
	avgA := make([]stats.TimeAverage, nUsers)
	avgB := make([]stats.TimeAverage, nUsers)
	delaySum := make([]float64, nUsers)
	departed := make([]int64, nUsers)
	busyA, busyB := 0, 0

	t := 0.0
	for t < end {
		rate := extTotal
		if busyA > 0 {
			rate++
		}
		if busyB > 0 {
			rate++
		}
		dt := rng.ExpFloat64() / rate
		tNext := t + dt
		if tNext > cfg.Warmup {
			lo := math.Max(t, cfg.Warmup)
			hi := math.Min(tNext, end)
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
		u := rng.Float64() * rate
		switch {
		case u < extTotal:
			i := 0
			acc := extRates[0]
			for u > acc && i < len(extRates)-1 {
				i++
				acc += extRates[i]
			}
			if i < len(ratesA) {
				discA.Enqueue(Packet{User: i, Arrive: t})
				countsA[globalA[i]]++
				busyA++
			} else {
				local := nLong + (i - len(ratesA))
				discB.Enqueue(Packet{User: local, Arrive: t})
				countsB[globalB[local]]++
				busyB++
			}
		case u < extTotal+boolRate(busyA):
			p := discA.Dequeue()
			g := globalA[p.User]
			countsA[g]--
			busyA--
			if p.User < nLong {
				discB.Enqueue(Packet{User: p.User, Arrive: p.Arrive})
				countsB[g]++
				busyB++
			} else if t >= cfg.Warmup {
				departed[g]++
				delaySum[g] += t - p.Arrive
			}
		default:
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

// sameF64s compares float slices bit for bit (NaN == NaN, +0 != −0):
// "statistically close" is not the contract here, identity is.
func sameF64s(t *testing.T, field string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d != %d", field, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("%s[%d]: got %v (%#x), want %v (%#x)", field, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func sameResult(t *testing.T, got, want Result) {
	t.Helper()
	sameF64s(t, "AvgQueue", got.AvgQueue, want.AvgQueue)
	sameF64s(t, "QueueCI95", got.QueueCI95, want.QueueCI95)
	sameF64s(t, "AvgDelay", got.AvgDelay, want.AvgDelay)
	sameF64s(t, "Throughput", got.Throughput, want.Throughput)
	if math.Float64bits(got.TotalAvgQueue) != math.Float64bits(want.TotalAvgQueue) {
		t.Errorf("TotalAvgQueue: got %v, want %v", got.TotalAvgQueue, want.TotalAvgQueue)
	}
	if got.Arrivals != want.Arrivals || got.Departures != want.Departures {
		t.Errorf("counts: got (%d,%d), want (%d,%d)",
			got.Arrivals, got.Departures, want.Arrivals, want.Departures)
	}
	if math.Float64bits(got.Duration) != math.Float64bits(want.Duration) {
		t.Errorf("Duration: got %v, want %v", got.Duration, want.Duration)
	}
}

var diffSeeds = []int64{1, 2, 7, 123}

func diffRates() [][]float64 {
	many := make([]float64, 64)
	for i := range many {
		many[i] = (0.5 + 0.5*float64(i%7)/6) * 0.9 / 64
	}
	return [][]float64{
		{0.5},
		{0.2, 0.3, 0.2},
		{0.6, 1e-12, 1e-12}, // adversarial: trailing rates below one ulp of the prefix sum
		many,
	}
}

// TestRunMatchesRef pins the batched memoryless engine against the frozen
// draw-per-event engine for every discipline family — including the
// randomized ones, which force the always-safe block size 1.
func TestRunMatchesRef(t *testing.T) {
	discs := map[string]func() Discipline{
		"fifo":     func() Discipline { return &FIFO{} },
		"lifo":     func() Discipline { return &LIFOPreemptive{} },
		"ps":       func() Discipline { return &ProcessorSharing{} },
		"hol-ps":   func() Discipline { return &HOLProcessorSharing{} },
		"polling":  func() Discipline { return &CyclicPolling{} },
		"rate-pri": func() Discipline { return &RatePriority{} },
		"fss":      func() Discipline { return &FairShareSplitter{} },
	}
	for name, mk := range discs {
		for _, rates := range diffRates() {
			for _, seed := range diffSeeds {
				cfg := Config{Rates: rates, Horizon: 1200, Seed: seed, Discipline: mk()}
				got, err := Run(cfg)
				if err != nil {
					t.Fatalf("%s n=%d seed %d: Run: %v", name, len(rates), seed, err)
				}
				cfg.Discipline = mk()
				want, err := refRun(cfg)
				if err != nil {
					t.Fatalf("%s n=%d seed %d: refRun: %v", name, len(rates), seed, err)
				}
				t.Run("", func(t *testing.T) { sameResult(t, got, want) })
				if t.Failed() {
					t.Fatalf("%s n=%d seed %d diverged from the frozen engine", name, len(rates), seed)
				}
			}
		}
	}
}

// TestTandemMatchesRef pins the tandem engine (batched pairs, binary
// stream pick) against the frozen linear-scan engine.
func TestTandemMatchesRef(t *testing.T) {
	discs := map[string]func() Discipline{
		"fifo": func() Discipline { return &FIFO{} },
		"fss":  func() Discipline { return &FairShareSplitter{} },
		"ps":   func() Discipline { return &ProcessorSharing{} },
	}
	shapes := []TandemConfig{
		{LongRates: []float64{0.2}, CrossA: []float64{0.3}, CrossB: []float64{0.25}},
		{LongRates: []float64{0.1, 0.15}, CrossA: []float64{0.2, 0.1}, CrossB: []float64{0.3}},
		{LongRates: []float64{0.4}}, // no cross traffic at all
	}
	for name, mk := range discs {
		for _, shape := range shapes {
			for _, seed := range diffSeeds {
				cfg := shape
				cfg.Horizon = 1200
				cfg.Seed = seed
				cfg.NewDisc = mk
				got, err := RunTandemCtx(context.Background(), cfg)
				if err != nil {
					t.Fatalf("%s seed %d: RunTandemCtx: %v", name, seed, err)
				}
				want, err := refTandem(cfg)
				if err != nil {
					t.Fatalf("%s seed %d: refTandem: %v", name, seed, err)
				}
				sameF64s(t, "QueueA", got.QueueA, want.QueueA)
				sameF64s(t, "QueueB", got.QueueB, want.QueueB)
				sameF64s(t, "TotalQueue", got.TotalQueue, want.TotalQueue)
				sameF64s(t, "EndToEndDelay", got.EndToEndDelay, want.EndToEndDelay)
				for i := range got.Departures {
					if got.Departures[i] != want.Departures[i] {
						t.Errorf("Departures[%d]: got %d, want %d", i, got.Departures[i], want.Departures[i])
					}
				}
				if t.Failed() {
					t.Fatalf("%s seed %d diverged from the frozen tandem engine", name, seed)
				}
			}
		}
	}
}

// TestPickSourceClamp pins the arrival-pick bounds: no uniform draw — not
// the exact prefix-sum boundary, not a value beyond the last entry, not
// even NaN — may index past user n−1.
func TestPickSourceClamp(t *testing.T) {
	cases := [][]float64{
		{0.5},
		{0.2, 0.3, 0.2},
		{0.6, 1e-300, 1e-300},          // trailing rates vanish into the prefix sum
		{1e-300, 1e-300, 0.5},          // leading rates vanish
		{0.1, 0.1, 0.1, 0.1, 0.1, 0.1}, // repeated equal boundaries
	}
	for _, rates := range cases {
		cum := cumRates(rates)
		n := len(rates)
		total := cum[n-1]
		draws := []float64{
			0, total / 3, total,
			math.Nextafter(total, 2*total), // first float past the last boundary
			total * 2,                      // far past (cannot happen from a guarded caller, must still clamp)
			math.NaN(),
		}
		for i, c := range cum {
			draws = append(draws, c, math.Nextafter(c, 0), math.Nextafter(c, 2*total))
			_ = i
		}
		for _, u := range draws {
			got := pickSource(cum, u)
			if got < 0 || got >= n {
				t.Fatalf("rates %v draw %v: pickSource returned %d, out of [0,%d)", rates, u, got, n)
			}
			// Cross-check against the historical linear scan on every
			// non-NaN draw: same pick, boundary semantics included.
			if !math.IsNaN(u) {
				j := 0
				acc := rates[0]
				for u > acc && j < n-1 {
					j++
					acc += rates[j]
				}
				if got != j {
					t.Fatalf("rates %v draw %v: pickSource %d != linear scan %d", rates, u, got, j)
				}
			}
		}
	}
}
