package randdist

import (
	"math"
	"testing"
)

// TestPairBatchStreamOrder pins PairBatch's refill order (E,F,E,F,…)
// against the unbatched alternation for every block size.
func TestPairBatchStreamOrder(t *testing.T) {
	for _, k := range []int{1, 3, 256, 0, 10_000} {
		ref := NewRand(7)
		var pb PairBatch
		pb.Init(NewRand(7), k)
		for i := 0; i < 1000; i++ {
			e, u := pb.Pair()
			we, wu := ref.ExpFloat64(), ref.Float64()
			if math.Float64bits(e) != math.Float64bits(we) || math.Float64bits(u) != math.Float64bits(wu) {
				t.Fatalf("k=%d pair %d: got (%v,%v), want (%v,%v)", k, i, e, u, we, wu)
			}
		}
	}
}

// TestPairBatchBlockOneInterleaves proves the always-safe property of
// block size 1: draws made between pairs (a discipline consuming the
// shared rng) land at exactly the unbatched stream positions.
func TestPairBatchBlockOneInterleaves(t *testing.T) {
	ref := NewRand(3)
	rng := NewRand(3)
	var pb PairBatch
	pb.Init(rng, 1)
	for i := 0; i < 500; i++ {
		e, u := pb.Pair()
		we, wu := ref.ExpFloat64(), ref.Float64()
		if math.Float64bits(e) != math.Float64bits(we) || math.Float64bits(u) != math.Float64bits(wu) {
			t.Fatalf("pair %d diverged", i)
		}
		// Mid-iteration discipline draw from the same rng.
		if i%3 == 0 {
			if got, want := rng.Float64(), ref.Float64(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("interleaved draw %d diverged: got %v want %v", i, got, want)
			}
		}
	}
}

// TestBlockSize pins the safe/unsafe block selection.
func TestBlockSize(t *testing.T) {
	if BlockSize(false) != 1 {
		t.Errorf("BlockSize(false) = %d, want 1", BlockSize(false))
	}
	if BlockSize(true) != batchCap {
		t.Errorf("BlockSize(true) = %d, want %d", BlockSize(true), batchCap)
	}
}
