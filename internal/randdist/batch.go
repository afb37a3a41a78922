package randdist

import "math/rand"

// Batched variate generation for the DES engines.  The engines' seeded
// streams are part of the repository's reproducibility contract (every
// EXPERIMENTS.md number is a function of its seed), so batching must
// not reorder a single draw of an engine that promises the unbatched
// stream.  PairBatch serves the engines' per-event (ExpFloat64,
// Float64) pairs.  Refills draw E,F,E,F,… in consumption order; block
// size 1 is always order-preserving (the two draws of a pair are
// adjacent in the unbatched stream), larger blocks reproduce the
// unbatched stream only when nothing else draws from the rng mid-run,
// and are a deterministic function of the seed either way.
//
// A block's trailing variates may be drawn past the run's final event;
// the rng is per-run and discarded, so no later consumer can observe
// the overshoot.  Differential tests in internal/des pin the batched
// memoryless engines against frozen unbatched ones, bit for bit.

// batchCap bounds a batch's buffer; blocks live inline in the struct so
// an engine-stack batch adds zero heap allocations.
const batchCap = 256

// BlockSize picks a batch's block size: the full buffer when the run's
// draw order is provably batch-safe, else 1, which preserves the
// unbatched order no matter what else draws in between.
func BlockSize(batchSafe bool) int {
	if batchSafe {
		return batchCap
	}
	return 1
}

// PairBatch serves (ExpFloat64, Float64) pairs in the memoryless
// engines' per-iteration draw order.
type PairBatch struct {
	rng *rand.Rand
	k   int
	pos int
	exp [batchCap]float64
	uni [batchCap]float64
}

// Init readies the batch with the given block size (clamped to
// [1, 256]).  No draws happen until the first Pair.
func (b *PairBatch) Init(rng *rand.Rand, k int) {
	if k < 1 {
		k = 1
	}
	if k > batchCap {
		k = batchCap
	}
	b.rng = rng
	b.k = k
	b.pos = k
}

// Pair returns the next (exponential, uniform) pair, refilling the
// block — E,F,E,F,… in stream order — when it runs dry.
//
//lint:hotpath
func (b *PairBatch) Pair() (e, u float64) {
	if b.pos >= b.k {
		b.refill()
	}
	e, u = b.exp[b.pos], b.uni[b.pos]
	b.pos++
	return e, u
}

//lint:hotpath
func (b *PairBatch) refill() {
	for i := 0; i < b.k; i++ {
		b.exp[i] = b.rng.ExpFloat64()
		b.uni[i] = b.rng.Float64()
	}
	b.pos = 0
}
