package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie beyond a tail
// percentile for it to count.
const minBeyond = 10

// outcomes collects one operation kind's latencies.  A failed or refused
// operation ranks above every completed one, so shedding load can never
// improve a latency percentile.
type outcomes struct {
	ms     []float64 // completed operations, milliseconds
	failed int
}

func (o *outcomes) add(ms float64) { o.ms = append(o.ms, ms) }
func (o *outcomes) fail()          { o.failed++ }
func (o *outcomes) n() int         { return len(o.ms) + o.failed }

// merge appends another collector's samples.
func (o *outcomes) merge(p *outcomes) {
	o.ms = append(o.ms, p.ms...)
	o.failed += p.failed
}

// quantile is a nearest-rank percentile.
type quantile struct {
	Value  float64 // +Inf when the rank lands on a failed operation
	Label  string  // "p50", "p99", "p97.3" or "max"
	N      int     // operations ranked
	Beyond int     // operations ranked above the reported one
}

func (q quantile) String() string {
	v := "inf (failed operation)"
	if !math.IsInf(q.Value, 1) {
		v = fmt.Sprintf("%.4f", q.Value)
	}
	return fmt.Sprintf("%s=%s (n=%d, %d beyond)", q.Label, v, q.N, q.Beyond)
}

// at returns the sample at 0-based rank k, failures ranked last.
func (o *outcomes) at(sorted []float64, k int) float64 {
	if k >= len(sorted) {
		return math.Inf(1)
	}
	return sorted[k]
}

func (o *outcomes) sorted() []float64 {
	s := append([]float64(nil), o.ms...)
	sort.Float64s(s)
	return s
}

// p50 returns the median.  It is NaN-free only for n ≥ 1.
func (o *outcomes) p50() quantile {
	n := o.n()
	if n == 0 {
		return quantile{Value: math.NaN(), Label: "p50"}
	}
	k := rank(0.5, n)
	return quantile{Value: o.at(o.sorted(), k), Label: "p50", N: n, Beyond: n - 1 - k}
}

// tail is upper(0.99).
func (o *outcomes) tail() quantile { return o.upper(0.99) }

// upper returns the highest percentile, capped at q, that has at least
// minBeyond samples beyond it; with fewer than minBeyond+1 samples no
// percentile qualifies and the maximum is reported, labelled "max".
func (o *outcomes) upper(q float64) quantile {
	n := o.n()
	if n == 0 {
		return quantile{Value: math.NaN(), Label: "max"}
	}
	s := o.sorted()
	if n <= minBeyond {
		return quantile{Value: o.at(s, n-1), Label: "max", N: n}
	}
	k := rank(q, n)
	label := fmt.Sprintf("p%.4g", 100*q)
	if n-1-k < minBeyond {
		k = n - 1 - minBeyond
		label = fmt.Sprintf("p%.4g", 100*float64(k+1)/float64(n))
	}
	return quantile{Value: o.at(s, k), Label: label, N: n, Beyond: n - 1 - k}
}

// rank is the 0-based nearest rank of quantile q among n samples; the
// slack keeps q·n from rounding up past an exact integer.
func rank(q float64, n int) int {
	return int(math.Ceil(q*float64(n)-1e-9)) - 1
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// median of a non-empty sample.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// frac is a/b, or 0 when nothing was attempted.
func frac(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
