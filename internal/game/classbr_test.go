package game

import (
	"math"
	"math/rand"
	"testing"

	"greednet/internal/alloc"
	"greednet/internal/core"
)

// fuzzRateVec draws a rate vector exercising ties, near-saturation, and
// outright infeasible regimes — the evaluator must agree with the full
// evaluation everywhere the Allocation contract is defined, not just
// inside D.
func fuzzRateVec(rng *rand.Rand) []float64 {
	n := 1 + rng.Intn(10)
	r := make([]float64, n)
	scale := []float64{0.3, 0.9, 1.0, 1.7}[rng.Intn(4)]
	for i := range r {
		if rng.Intn(3) == 0 {
			// Quantized: forces exact rate ties across users.
			r[i] = float64(1+rng.Intn(4)) / 16
		} else {
			r[i] = rng.Float64()
		}
		r[i] *= scale / float64(n)
	}
	return r
}

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// At unit multiplicities the deviator evaluator must reproduce the full
// Fair Share evaluation bit for bit for every probe rate, insertion
// position, and tie pattern — the property that lets the per-user best
// response run on the class arithmetic without changing any solve — and
// its congestion report must equal FairShare.Congestion.
func TestFairShareBRDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var br fairShareBR
	fs := alloc.FairShare{}
	ones := make([]int, 16)
	for i := range ones {
		ones[i] = 1
	}
	dst := make([]float64, 16)
	for trial := 0; trial < 1500; trial++ {
		r := fuzzRateVec(rng)
		n := len(r)
		br.congestion(dst[:n], r, ones[:n])
		for j, want := range fs.Congestion(r) {
			if !sameBits(dst[j], want) {
				t.Fatalf("r=%v: congestion[%d] = %v, want %v", r, j, dst[j], want)
			}
		}
		i := rng.Intn(n)
		br.Reset(r, ones[:n], i)
		for probe := 0; probe < 12; probe++ {
			var x float64
			switch probe % 4 {
			case 0:
				x = 1e-9 + rng.Float64()*(1-2e-9)
			case 1:
				// Exact tie with another user's rate.
				x = r[rng.Intn(n)]
			case 2:
				x = r[i]
			default:
				x = rng.Float64() * 1.5
			}
			rr := core.WithRate(r, i, x)
			wantC := fs.CongestionOf(rr, i)
			if gotC := br.CongestionOf(x); !sameBits(gotC, wantC) {
				t.Fatalf("r=%v i=%d x=%v: CongestionOf = %v, want %v", r, i, x, gotC, wantC)
			}
			want1, want2 := fs.OwnDerivs(rr, i)
			got1, got2 := br.OwnDerivs(x)
			if !sameBits(got1, want1) || !sameBits(got2, want2) {
				t.Fatalf("r=%v i=%d x=%v: OwnDerivs = (%v,%v), want (%v,%v)",
					r, i, x, got1, got2, want1, want2)
			}
		}
	}
}

func TestFairShareBRZeroAllocs(t *testing.T) {
	r := []float64{0.11, 0.07, 0.07, 0.23, 0.02, 0.13, 0.05, 0.17}
	ones := []int{1, 1, 1, 1, 1, 1, 1, 1}
	var br fairShareBR
	br.Reset(r, ones, 3) // warm the buffers
	if got := testing.AllocsPerRun(200, func() {
		br.Reset(r, ones, 3)
		br.CongestionOf(0.1)
		br.OwnDerivs(0.1)
	}); got != 0 {
		t.Errorf("warm fairShareBR Reset+probe allocs/op = %v, want 0", got)
	}
}
