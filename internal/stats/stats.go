// Package stats provides the small statistical toolkit used by the
// discrete-event simulator and the experiment harness: summary statistics,
// batch-means confidence intervals, and streaming accumulators.
package stats

import "math"

// Mean returns the arithmetic mean of xs (NaN for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance (NaN for fewer than two
// samples).
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// tQuantile975 approximates the two-sided 95% Student-t quantile for the
// given degrees of freedom (a short table with asymptote 1.96).
func tQuantile975(df int) float64 {
	table := []float64{
		0, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
		2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093,
		2.086,
	}
	switch {
	case df <= 0:
		return math.NaN()
	case df < len(table):
		return table[df]
	case df < 30:
		return 2.045
	case df < 60:
		return 2.000
	default:
		return 1.96
	}
}

// CI95 returns the half-width of a 95% confidence interval for the mean of
// xs using the Student-t quantile on len(xs)−1 degrees of freedom.
func CI95(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return math.NaN()
	}
	return tQuantile975(n-1) * StdDev(xs) / math.Sqrt(float64(n))
}

// Welford is a streaming mean/variance accumulator.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add folds a sample into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Mean returns the running mean (NaN when empty).
func (w *Welford) Mean() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.mean
}

// Variance returns the running unbiased variance (NaN below two samples).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return math.NaN()
	}
	return w.m2 / float64(w.n-1)
}

// TimeAverage accumulates a time-weighted average of a piecewise-constant
// signal, as used for average queue lengths.
type TimeAverage struct {
	integral float64
	duration float64
}

// Accumulate adds a segment where the signal held value for dt.
func (t *TimeAverage) Accumulate(value, dt float64) {
	t.integral += value * dt
	t.duration += dt
}

// Value returns the time average so far (NaN with no elapsed time).
func (t *TimeAverage) Value() float64 {
	if t.duration == 0 { //lint:allow floateq zero elapsed time has no average; exact guard
		return math.NaN()
	}
	return t.integral / t.duration
}
