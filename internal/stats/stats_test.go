package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %v, want 5", m)
	}
	if v := Variance(xs); math.Abs(v-32.0/7) > 1e-12 {
		t.Errorf("Variance = %v, want 32/7", v)
	}
}

func TestMeanEmpty(t *testing.T) {
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Variance([]float64{1})) {
		t.Error("degenerate inputs should be NaN")
	}
}

func TestCI95ShrinksWithN(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	small := make([]float64, 10)
	big := make([]float64, 1000)
	for i := range small {
		small[i] = rng.NormFloat64()
	}
	for i := range big {
		big[i] = rng.NormFloat64()
	}
	if CI95(big) >= CI95(small) {
		t.Errorf("CI should shrink with n: %v vs %v", CI95(big), CI95(small))
	}
}

func TestCI95Coverage(t *testing.T) {
	// ~95% of unit-normal sample means should be within the CI of 0.
	rng := rand.New(rand.NewSource(2))
	hits, trials := 0, 400
	for k := 0; k < trials; k++ {
		xs := make([]float64, 25)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		if math.Abs(Mean(xs)) <= CI95(xs) {
			hits++
		}
	}
	cov := float64(hits) / float64(trials)
	if cov < 0.90 || cov > 0.99 {
		t.Errorf("CI coverage %v outside [0.90, 0.99]", cov)
	}
}

func TestWelfordMatchesBatch(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e6 {
				xs = append(xs, v)
			}
		}
		if len(xs) < 2 {
			return true
		}
		var w Welford
		for _, x := range xs {
			w.Add(x)
		}
		return math.Abs(w.Mean()-Mean(xs)) < 1e-9*(1+math.Abs(Mean(xs))) &&
			math.Abs(w.Variance()-Variance(xs)) < 1e-6*(1+Variance(xs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTimeAverage(t *testing.T) {
	var ta TimeAverage
	ta.Accumulate(2, 1) // value 2 for 1s
	ta.Accumulate(0, 3) // value 0 for 3s
	if v := ta.Value(); math.Abs(v-0.5) > 1e-15 {
		t.Errorf("TimeAverage = %v, want 0.5", v)
	}
	var empty TimeAverage
	if !math.IsNaN(empty.Value()) {
		t.Error("empty time average should be NaN")
	}
}

func TestTQuantileMonotone(t *testing.T) {
	prev := math.Inf(1)
	for df := 1; df < 100; df++ {
		q := tQuantile975(df)
		if q > prev+1e-12 {
			t.Fatalf("t quantile not nonincreasing at df=%d: %v > %v", df, q, prev)
		}
		prev = q
	}
	if tQuantile975(1000) != 1.96 {
		t.Error("asymptote should be 1.96")
	}
}
