package des

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// countEvent is one count change in a synthetic event stream.
type countEvent struct {
	t     float64
	user  int
	delta int
}

// eagerAccumulate is the historical per-event accumulation, kept as the
// in-test reference: at every event it scans all users, adding each one's
// constant count over the elapsed interval (clipped to [warmup, end]) to
// the run integral and the batch buckets.  (The batch split reuses the
// boundary-corrected accumulateBatchUser — the historical splitter could
// dump an interval's remainder into the wrong batch when a split landed
// exactly on a batch boundary — so the comparison isolates the lazy
// bookkeeping, not that fixed bias.)
func eagerAccumulate(n, batches int, warmup, end, batchLen float64, evs []countEvent) ([]float64, [][]float64) {
	counts := make([]int, n)
	integral := make([]float64, n)
	batchInt := make([][]float64, n)
	for i := range batchInt {
		batchInt[i] = make([]float64, batches)
	}
	prev := 0.0
	accumulate := func(now float64) {
		lo := math.Max(prev, warmup)
		hi := math.Min(now, end)
		if hi > lo {
			for i, c := range counts {
				if c > 0 {
					integral[i] += float64(c) * (hi - lo)
					accumulateBatchUser(batchInt[i], float64(c), lo-warmup, hi-warmup, batchLen, batches)
				}
			}
		}
		prev = now
	}
	for _, ev := range evs {
		accumulate(ev.t)
		counts[ev.user] += ev.delta
	}
	accumulate(end)
	return integral, batchInt
}

// The lazy per-user accumulation must agree with the historical eager
// scan on the run integrals and the batch-means integrals, for event
// streams that straddle the warmup boundary, batch boundaries, and the
// horizon end.  (Bit-identity is not expected — the lazy path sums one
// product per constant-count segment where the eager path summed one per
// event — so the comparison is a tight relative tolerance.)
func TestLazyQueuesMatchesEagerReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(5)
		batches := 1 + rng.Intn(6)
		warmup := rng.Float64() * 2
		horizon := 1 + rng.Float64()*8
		end := warmup + horizon
		batchLen := horizon / float64(batches)

		counts := make([]int, n)
		var evs []countEvent
		tt := 0.0
		for len(evs) < 60 {
			tt += rng.ExpFloat64() * 0.2
			if tt >= end+1 { // events past the horizon must be ignored
				break
			}
			u := rng.Intn(n)
			delta := 1
			if counts[u] > 0 && rng.Intn(2) == 0 {
				delta = -1
			}
			counts[u] += delta
			evs = append(evs, countEvent{t: tt, user: u, delta: delta})
		}

		wantInt, wantBatch := eagerAccumulate(n, batches, warmup, end, batchLen, evs)
		lq := newLazyQueues(n, batches, warmup, end, batchLen)
		for _, ev := range evs {
			if ev.t >= end {
				break
			}
			lq.bump(ev.user, ev.t, ev.delta)
		}
		lq.finish()

		for i := 0; i < n; i++ {
			if d := math.Abs(lq.user(i)[uIntegral] - wantInt[i]); d > 1e-9*(1+wantInt[i]) {
				t.Fatalf("trial %d user %d: lazy integral %v, eager %v", trial, i, lq.user(i)[uIntegral], wantInt[i])
			}
			for b := 0; b < batches; b++ {
				if d := math.Abs(lq.batchRow(i)[b] - wantBatch[i][b]); d > 1e-9*(1+wantBatch[i][b]) {
					t.Fatalf("trial %d user %d batch %d: lazy %v, eager %v",
						trial, i, b, lq.batchRow(i)[b], wantBatch[i][b])
				}
			}
		}
	}
}

// The binary-search source pick must choose the identical source as the
// historical linear scan for every draw, including draws that land
// exactly on a prefix sum and draws beyond the last one.
func TestPickSourceMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	linear := func(rates []float64, u float64) int {
		i := 0
		acc := rates[0]
		for u > acc && i < len(rates)-1 {
			i++
			acc += rates[i]
		}
		return i
	}
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(12)
		rates := make([]float64, n)
		total := 0.0
		for i := range rates {
			rates[i] = 0.01 + rng.Float64()
			total += rates[i]
		}
		cum := cumRates(rates)
		for k := 0; k < 40; k++ {
			u := rng.Float64() * total * 1.01 // occasionally past the end
			if got, want := pickSource(cum, u), linear(rates, u); got != want {
				t.Fatalf("rates=%v u=%v: binary %d, linear %d", rates, u, got, want)
			}
		}
		for _, u := range cum { // exact boundary draws
			if got, want := pickSource(cum, u), linear(rates, u); got != want {
				t.Fatalf("rates=%v boundary u=%v: binary %d, linear %d", rates, u, got, want)
			}
		}
	}
}

// allocsPerExtraEvent runs run at horizons 2e4 and 4e4 and returns the
// heap allocations the second run made beyond the first, per extra
// event: the steady-state cost of one event once every buffer has grown.
func allocsPerExtraEvent(t *testing.T, run func(horizon float64) (Result, error)) float64 {
	t.Helper()
	measure := func(h float64) (uint64, int64) {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res, err := run(h)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		return m1.Mallocs - m0.Mallocs, res.Arrivals + res.Departures
	}
	m1, e1 := measure(2e4)
	m2, e2 := measure(4e4)
	if e2 <= e1 {
		t.Fatalf("event counts did not grow with horizon: %d then %d", e1, e2)
	}
	return (float64(m2) - float64(m1)) / float64(e2-e1)
}

// The steady-state event loop must be O(1) amortized allocations per
// event: doubling the horizon roughly doubles the event count, and the
// extra events must cost (amortized) nothing beyond occasional queue
// regrowth.  This is the allocs/event regression gate for the lazy
// accumulation rewrite.
func TestRunSteadyStateAllocsPerEvent(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc-scaling gate needs a long horizon")
	}
	perEvent := allocsPerExtraEvent(t, func(h float64) (Result, error) {
		return Run(Config{Rates: []float64{0.2, 0.3, 0.2}, Discipline: &FIFO{}, Horizon: h, Warmup: 100, Seed: 7})
	})
	if perEvent > 0.01 {
		t.Errorf("steady-state loop allocates %.4f/event, want ~0", perEvent)
	}
}

// The class-queue disciplines and the Fair Queueing scheduler must not
// allocate per packet either: a Packet handed to StrictPriority through
// a func field, or an fqItem boxed by container/heap, would escape to the
// heap on every arrival.
func TestSchedulersSteadyStateAllocsPerEvent(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc-scaling gate needs a long horizon")
	}
	rates := []float64{0.2, 0.3, 0.2}
	for _, tc := range []struct {
		name string
		run  func(h float64) (Result, error)
	}{
		{"FairShareSplitter", func(h float64) (Result, error) {
			return Run(Config{Rates: rates, Discipline: &FairShareSplitter{}, Horizon: h, Warmup: 100, Seed: 7})
		}},
		{"RatePriority", func(h float64) (Result, error) {
			return Run(Config{Rates: rates, Discipline: &RatePriority{}, Horizon: h, Warmup: 100, Seed: 7})
		}},
		{"FQSched", func(h float64) (Result, error) {
			return RunSched(SchedConfig{Rates: rates, Sched: &FQSched{}, Horizon: h, Warmup: 100, Seed: 7})
		}},
	} {
		if perEvent := allocsPerExtraEvent(t, tc.run); perEvent > 0.01 {
			t.Errorf("%s: steady-state loop allocates %.4f/event, want ~0", tc.name, perEvent)
		}
	}
}
