package main

import (
	"fmt"
	"runtime"
	"testing"

	"greednet/internal/hotpath"
)

// The -classes mode: the class-solver gate.  Each (K, N) scale solves
// the same K-class game with the O(K)-per-step class arithmetic; the
// small scales also run the exact per-user solver on the expanded
// profile, so BENCH_classes.json carries a measured class-vs-exact
// speedup rather than a claim.  Before any timing, the class arithmetic
// is checked Float64bits-equal to the exact solver at K = N (the
// documented bit-equality contract) — the gate never records the speed
// of a solver that drifted off the exact answers.

// classScaleRecord is one (K, N) datapoint in BENCH_classes.json.
type classScaleRecord struct {
	Name string `json:"name"`
	K    int    `json:"k"`
	N    int    `json:"n"`
	// Iters is the solve's round count — deterministic per scale, so a
	// changed count flags an algorithmic change even under the ceiling.
	Iters int `json:"iters"`

	NsPerOp float64 `json:"ns_per_op"`
	// NsCeiling is the gated ceiling: an order of magnitude above a warm
	// commodity-core measurement, catching accidental O(N) behavior
	// without contending with host variance.
	NsCeiling   float64 `json:"ns_ceiling"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`

	// ExactNsPerOp and SpeedupVsExact are present on the scales small
	// enough to time the exact per-user solver on the expansion.
	ExactNsPerOp   float64 `json:"exact_ns_per_op,omitempty"`
	SpeedupVsExact float64 `json:"speedup_vs_exact,omitempty"`
}

// classReport is the BENCH_classes.json artifact.
type classReport struct {
	HostCores int `json:"host_cores"`
	// SpeedupValid feeds the shared artifact overwrite guard.  Every
	// measurement here is single-threaded — the class-vs-exact ratio
	// compares algorithms on one core, not cores against cores — so the
	// record is valid on any host, including single-core runners.
	SpeedupValid bool `json:"speedup_valid"`
	// BitEqual records the pre-timing differential check: class
	// arithmetic vs the exact solver at K = N.
	BitEqual bool               `json:"bit_equal"`
	Scales   []classScaleRecord `json:"scales"`
}

// gateClasses returns the regression messages for a report, empty when
// the gate passes.  Pure — unit tests feed it synthetic reports with
// injected regressions.
func gateClasses(r classReport) []string {
	var fails []string
	if !r.BitEqual {
		fails = append(fails, "class solver drifted off the exact per-user answers (K=N bit-equality)")
	}
	for _, s := range r.Scales {
		if s.NsPerOp > s.NsCeiling {
			fails = append(fails, fmt.Sprintf(
				"scale %s: %.0f ns/op over ceiling %.0f (class solve cost must not scale with N)",
				s.Name, s.NsPerOp, s.NsCeiling))
		}
		if s.AllocsPerOp > 0 {
			fails = append(fails, fmt.Sprintf(
				"scale %s: %d allocs/op (warm class solve must be allocation-free)",
				s.Name, s.AllocsPerOp))
		}
		if s.SpeedupVsExact > 0 && s.SpeedupVsExact < 1 {
			fails = append(fails, fmt.Sprintf(
				"scale %s: class solve %.2fx vs exact — slower than the solver it aggregates",
				s.Name, s.SpeedupVsExact))
		}
	}
	return fails
}

// benchClassScale times one scale's class solve (and, on the comparison
// scales, the exact expanded solve) with testing.Benchmark.
func benchClassScale(s hotpath.ClassScale) (classScaleRecord, error) {
	cb, err := hotpath.NewClassBench(s)
	if err != nil {
		return classScaleRecord{}, err
	}
	res, err := cb.Solve()
	if err != nil {
		return classScaleRecord{}, err
	}
	var rerr error
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cb.Solve(); err != nil {
				rerr = err
				b.FailNow()
			}
		}
	})
	if rerr != nil {
		return classScaleRecord{}, rerr
	}
	rec := classScaleRecord{
		Name:        s.Name,
		K:           s.K,
		N:           s.N,
		Iters:       res.Iters,
		NsPerOp:     float64(br.T.Nanoseconds()) / float64(br.N),
		NsCeiling:   s.NsCeiling,
		AllocsPerOp: br.AllocsPerOp(),
		BytesPerOp:  br.AllocedBytesPerOp(),
	}
	if s.ExactCompare {
		xr := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cb.ExactSolve(); err != nil {
					rerr = err
					b.FailNow()
				}
			}
		})
		if rerr != nil {
			return classScaleRecord{}, rerr
		}
		rec.ExactNsPerOp = float64(xr.T.Nanoseconds()) / float64(xr.N)
		rec.SpeedupVsExact = rec.ExactNsPerOp / rec.NsPerOp
	}
	return rec, nil
}

// writeClassesJSON runs the class-solver family, writes
// BENCH_classes.json, prints the human summary, and returns exit code 1
// when the gate fails.
func writeClassesJSON(path string, force bool) (int, error) {
	report := classReport{
		HostCores:    runtime.GOMAXPROCS(0),
		SpeedupValid: true, // single-threaded algorithm ratio: valid on any host
	}
	if err := guardArtifactOverwrite(path, report.SpeedupValid, force); err != nil {
		return 0, err
	}
	if err := hotpath.ClassBitEquality(); err != nil {
		fmt.Printf("classes bit-equality: FAILED: %v\n", err)
	} else {
		report.BitEqual = true
		fmt.Println("classes bit-equality: class arithmetic matches exact solver at K=N")
	}
	for _, s := range hotpath.ClassScales() {
		rec, err := benchClassScale(s)
		if err != nil {
			return 0, err
		}
		report.Scales = append(report.Scales, rec)
		exact := ""
		if rec.SpeedupVsExact > 0 {
			exact = fmt.Sprintf("  exact %12.0f ns/op (%.0fx)", rec.ExactNsPerOp, rec.SpeedupVsExact)
		}
		fmt.Printf("classes %-9s K=%-3d N=%-8d %12.0f ns/op (ceiling %.0e) %3d allocs/op  %d iters%s\n",
			rec.Name, rec.K, rec.N, rec.NsPerOp, rec.NsCeiling, rec.AllocsPerOp, rec.Iters, exact)
	}
	if err := writeArtifactJSON(path, report, force); err != nil {
		return 0, err
	}
	fmt.Printf("classes bench: %d scales -> %s\n", len(report.Scales), path)

	code := 0
	for _, msg := range gateClasses(report) {
		fmt.Printf("  REGRESSION(%s)\n", msg)
		code = 1
	}
	return code, nil
}
