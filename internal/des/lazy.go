package des

import (
	"math"
	"math/rand"

	"greednet/internal/randdist"
)

// lazyQueues tracks the per-user time-averaged queue statistics with lazy
// accumulation.  The historical event loop touched every user at every
// event — an O(N) scan per event just to record that N−1 counts had not
// changed.  Each user's count is piecewise constant between its own
// arrivals and departures, so the integral ∫ counts_i(t) dt only needs
// advancing when counts_i actually changes (bump) and once at the end of
// the measurement window (finish): O(1) amortized per event, with the
// same piecewise-constant integrand as the eager scan.
//
// Segments are clamped to the measurement window [warmup, end] at flush
// time, and zero-count segments are skipped — they contribute nothing to
// either the run integral or the batch-means integrals.
//
// Layout.  All per-user state lives in ONE flat float64 arena,
// interleaved per user: [count, lastT, integral, batch₀ … batch₋₁] —
// uStride header slots followed by the batch-means row.  At 10⁵ users
// the stats dwarf every cache level and each bump indexes a random
// user, so the miss count per bump IS the cost; the historical three
// parallel arrays plus a separately-allocated batch row cost four
// misses where the interleaved stride costs one or two (header and the
// current batch entry usually share or neighbor a cache line).  The
// count lives in a float64 slot: queue counts are tiny integers, exactly
// representable, and the arithmetic (count·segment) is bit-identical to
// the historical int-count version.
type lazyQueues struct {
	data []float64 // n strides of uStride+batches slots each

	warmup, end, batchLen float64
	batches               int
}

// Interleaved per-user slot offsets within a stride.
const (
	uCount    = 0 // current packets in system (integer-valued)
	uLastT    = 1 // start of the open constant-count segment
	uIntegral = 2 // ∫ count over [warmup, end] so far
	uStride   = 3 // header slots before the batch row
)

func newLazyQueues(n, batches int, warmup, end, batchLen float64) *lazyQueues {
	return &lazyQueues{
		data:     make([]float64, n*(uStride+batches)),
		warmup:   warmup,
		end:      end,
		batchLen: batchLen,
		batches:  batches,
	}
}

// user is user i's interleaved stride: header slots plus batch row.
//
//lint:hotpath
func (lq *lazyQueues) user(i int) []float64 {
	s := uStride + lq.batches
	return lq.data[i*s : (i+1)*s]
}

// batchRow is user i's per-batch integral row (valid after finish).
func (lq *lazyQueues) batchRow(i int) []float64 {
	return lq.user(i)[uStride:]
}

// flush closes user i's open constant-count segment at time now.
//
//lint:hotpath
func (lq *lazyQueues) flush(i int, now float64) {
	u := lq.user(i)
	if c := u[uCount]; c > 0 {
		lo := max(u[uLastT], lq.warmup)
		hi := min(now, lq.end)
		if hi > lo {
			u[uIntegral] += c * (hi - lo)
			accumulateBatchUser(u[uStride:], c, lo-lq.warmup, hi-lq.warmup, lq.batchLen, lq.batches)
		}
	}
	u[uLastT] = now
}

// bump records that user i's count changes by delta at time now, closing
// the constant-count segment that ends here.
//
//lint:hotpath
func (lq *lazyQueues) bump(i int, now float64, delta int) {
	lq.flush(i, now)
	lq.user(i)[uCount] += float64(delta)
}

// finish closes every user's open segment at the end of measurement.
// Statistics are complete only after finish.
func (lq *lazyQueues) finish() {
	n := len(lq.data) / (uStride + lq.batches)
	for i := 0; i < n; i++ {
		lq.flush(i, lq.end)
	}
}

// avgQueue returns the time-averaged queue of user i over the window.
func (lq *lazyQueues) avgQueue(i int) float64 {
	if dur := lq.end - lq.warmup; dur > 0 {
		return lq.user(i)[uIntegral] / dur
	}
	return math.NaN()
}

// accumulateBatchUser spreads one user's constant-count segment [lo, hi)
// (times relative to warmup) over the batch buckets.
//
// Boundary care: after lo advances to a batch boundary, int(lo/batchLen)
// can round down to the batch just finished (the division need not be
// exact), leaving bEnd ≤ lo.  The historical splitter's fallback dumped
// the whole remaining interval into that earlier batch — a small-bias bug
// while intervals were single event spans, a large one for the long
// constant-count segments flushed here — so the boundary case steps to
// the next batch instead.
// The count c is integer-valued (see lazyQueues layout); c·seg is
// bit-identical to the historical float64(int-count)·seg product.
func accumulateBatchUser(batchInt []float64, c float64, lo, hi, batchLen float64, batches int) {
	for lo < hi {
		b := int(lo / batchLen)
		if b >= batches {
			b = batches - 1
		}
		bEnd := float64(b+1) * batchLen
		if bEnd <= lo && b < batches-1 {
			b++
			bEnd = float64(b+1) * batchLen
		}
		seg := min(hi, bEnd) - lo
		if seg <= 0 {
			// Only reachable in the clamped last batch, where the
			// remainder belongs anyway.
			seg = hi - lo
		}
		batchInt[b] += c * seg
		lo += seg
	}
}

// cumRates builds the left-to-right prefix sums of the arrival rates, the
// table behind the O(log N) arrival-source pick.  The summation order is
// the same as the historical linear scan's running accumulator, so the
// table entries equal the scan's intermediate sums bit for bit.
func cumRates(rates []float64) []float64 {
	cum := make([]float64, len(rates))
	acc := 0.0
	for i, r := range rates {
		acc += r
		cum[i] = acc
	}
	return cum
}

// pickSource returns the arrival source for the uniform draw u: the
// smallest i with u ≤ cum[i], clamped to the last source.  This is the
// binary-search form of the historical linear scan (advance while
// u > acc), choosing the identical source for every draw.
//
// The clamp is structural, not a patch-up branch: hi starts at
// len(cum)−1 and only ever decreases, so the result cannot index past
// user n−1 even when u exceeds cum[n−1].  Callers draw u = Float64()·rate
// with rate ≥ total; the caller's `u < total` guard uses total computed
// in the same left-to-right order as cum, so total == cum[n−1] bit for
// bit — but tiny trailing rates (cum entries separated by less than one
// ulp) and a draw landing exactly on cum[n−1] still land in range by the
// bound alone, with no float equality anywhere.  Degenerate u (NaN)
// compares false against every entry and resolves to source 0 rather
// than panicking.
//
//lint:hotpath
func pickSource(cum []float64, u float64) int {
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if u > cum[mid] {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// arrivals is the superposed arrival stream of RunG and RunSched.  N
// independent Poisson sources are exactly one Poisson stream of rate
// Σλ in which each arrival comes from source i with probability λ_i/Σλ,
// so the engines keep one pending arrival instead of one per source.
// Each arrival's gap and source are one PairBatch pair: the exponential
// scaled by 1/Σλ, the uniform scaled by Σλ into the prefix sums.  The
// batch prefetches full blocks even when a classifier or a service law
// draws from the same rng in between: the stream is then still a pure
// function of the seed, only not the unbatched one.
type arrivals struct {
	pb    randdist.PairBatch
	cum   []float64
	total float64
	t     float64 // time of the pending arrival
	src   int     // its source
}

// init starts the stream at time 0 and draws its first arrival; total
// is Σ rates as checkConfig sums it.
func (a *arrivals) init(rng *rand.Rand, rates []float64, total float64) {
	a.pb.Init(rng, randdist.BlockSize(true))
	a.cum = cumRates(rates)
	a.total = total
	a.t = 0
	a.next()
}

// next replaces the pending arrival with the one after it.
//
//lint:hotpath
func (a *arrivals) next() {
	e, u := a.pb.Pair()
	a.t += e / a.total
	a.src = pickSource(a.cum, u*a.total)
}
