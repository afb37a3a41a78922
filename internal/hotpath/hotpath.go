// Package hotpath pins the performance of the repository's hottest code
// paths.  Each Case is a named micro-benchmark runnable both by `go test
// -bench` (see hotpath_test.go) and programmatically by greedbench's
// -hotpath flag, which times every case with testing.Benchmark and writes
// the results — ns/op, allocs/op, bytes/op — to BENCH_hotpath.json.
//
// Cases marked Gated are paths whose warm steady state must stay at or
// under their allocation Budget per operation — zero for the workspace
// fast paths, a small audited number for end-to-end cases whose results
// are freshly allocated by contract (SolveNashWS's R and C, des.Run's
// result vectors).  A gated case measuring above its budget is a perf
// regression and fails the emitter.
package hotpath

import (
	"context"
	"testing"

	"greednet/internal/alloc"
	"greednet/internal/core"
	"greednet/internal/des"
	"greednet/internal/game"
	"greednet/internal/utility"
)

// Case is one named micro-benchmark.
type Case struct {
	// Name is the stable identifier recorded in BENCH_hotpath.json.
	Name string
	// Gated marks the allocation-gated paths: allocs/op must not exceed
	// Budget.
	Gated bool
	// Budget is the allocs/op ceiling for a gated case.  The workspace
	// fast paths leave it 0 (zero-alloc); end-to-end cases budget the
	// allocations their contracts require (fresh result vectors), so any
	// *new* allocation on the path still trips the gate.
	Budget int64
	// Bench runs the benchmark; it must call b.ReportAllocs so the
	// programmatic testing.Benchmark results carry allocation counts.
	Bench func(b *testing.B)
}

// rates64 is the fixed 64-user profile the allocation benches share:
// feasible (Σ < 1), unsorted, with exact ties to exercise the stable
// argsort's tie-breaking.
func rates64() []float64 {
	r := make([]float64, 64)
	for i := range r {
		r[i] = (0.3 + 0.5*float64(i%7)/7) / 64
	}
	return r
}

// Cases returns the hot-path benchmark suite in emission order: the
// per-user paths below, then the class-solver headline scales
// (classes.go).
func Cases() []Case {
	cases := []Case{
		{
			Name:  "fairshare_congestion_into_n64",
			Gated: true,
			Bench: func(b *testing.B) {
				r := rates64()
				if !core.Feasible(r) {
					b.Fatal("hotpath: rates64 profile is infeasible")
				}
				dst := make([]float64, len(r))
				var ws core.Workspace
				(alloc.FairShare{}).CongestionInto(&ws, dst, r) // warm
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					(alloc.FairShare{}).CongestionInto(&ws, dst, r)
				}
			},
		},
		{
			Name:  "proportional_congestion_into_n64",
			Gated: true,
			Bench: func(b *testing.B) {
				r := rates64()
				if !core.Feasible(r) {
					b.Fatal("hotpath: rates64 profile is infeasible")
				}
				dst := make([]float64, len(r))
				var ws core.Workspace
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					(alloc.Proportional{}).CongestionInto(&ws, dst, r)
				}
			},
		},
		{
			Name:  "bestresponse_fairshare_ws_n64",
			Gated: true,
			Bench: func(b *testing.B) {
				r := rates64()
				var u core.Utility = utility.NewLinear(1, 0.25)
				ws := game.NewWorkspace()
				game.BestResponseWS(ws, alloc.FairShare{}, u, r, 5, game.BROptions{}) // warm
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					game.BestResponseWS(ws, alloc.FairShare{}, u, r, 5, game.BROptions{})
				}
			},
		},
		{
			Name: "solvenash_fairshare_n8",
			// Per solve: the freshly allocated R and C the NashResult
			// contract promises.  Everything else rides the workspace; a
			// 3rd allocation means scratch started escaping.
			Gated:  true,
			Budget: 2,
			Bench: func(b *testing.B) {
				us := utility.Identical(utility.NewLinear(1, 0.25), 8)
				r0 := make([]float64, 8)
				for i := range r0 {
					r0[i] = 0.4 / 8
				}
				ws := game.NewWorkspace()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := game.SolveNashWS(context.Background(), ws, alloc.FairShare{}, us, r0, game.NashOptions{}); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			Name: "des_run",
			// Per run: the Config slices built inside the loop, the
			// lazy-queue accumulators, and the Result vectors — setup and
			// teardown, not per-event work.  The per-event path (bump,
			// pickSource, the event loop) is allocation-free, which is what
			// pins the budget at run-setup scale instead of event scale.
			Gated:  true,
			Budget: 29,
			Bench: func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cfg := des.Config{
						Rates:      []float64{0.2, 0.3, 0.2},
						Discipline: &des.FIFO{},
						Horizon:    2000,
						Seed:       11,
					}
					if _, err := des.Run(cfg); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
	}
	return append(cases, classCases()...)
}
