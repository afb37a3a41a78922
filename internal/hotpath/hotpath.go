// Package hotpath pins the performance of the repository's hottest code
// paths.  Each Case is a named micro-benchmark runnable both by `go test
// -bench` (see hotpath_test.go) and by `greedbench -bench hotpath`, which
// times every case with testing.Benchmark and writes its ns/op,
// allocs/op and bytes/op rows to BENCH_hotpath.json.
//
// Every case's warm steady state must stay at or under its allocation
// Budget per operation — zero for the workspace fast paths, a small
// audited number for end-to-end cases whose results are freshly
// allocated by contract (SolveNashWS's R and C, des.Run's result
// vectors).  A case measuring above its budget is a perf regression and
// fails the bench gate.
package hotpath

import (
	"context"
	"testing"

	"greednet/internal/alloc"
	"greednet/internal/cliutil"
	"greednet/internal/core"
	"greednet/internal/des"
	"greednet/internal/game"
	"greednet/internal/utility"
)

// Case is one named micro-benchmark.
type Case struct {
	// Name is the stable identifier recorded in BENCH_hotpath.json.
	Name string
	// Budget is the case's allocs/op ceiling.  The workspace fast paths
	// leave it 0 (zero-alloc); end-to-end cases budget the allocations
	// their contracts require (fresh result vectors), so any *new*
	// allocation on the path still trips the gate.
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

// rates64Cold is a second 64-user profile, feasible and with distinct
// rates in an order unrelated to rates64's, so that alternating the two
// on one workspace defeats the argsort's repair of its last permutation.
func rates64Cold() []float64 {
	r := make([]float64, 64)
	for i := range r {
		r[i] = (0.3 + 0.5*float64(i*29%64)/64) / 64
	}
	return r
}

// climbSpecs are the utility specs greedd's benchmark population cycles
// through.
var climbSpecs = []string{"linear:1,4", "linear:1,2", "log:2,1", "sqrt:1,2"}

// climbGame returns the climb-shaped solve: n users with climbSpecs
// assigned round-robin, starting from distinct rates spread over
// [0.0025, 0.0035] in an order unrelated to the index, and the service's
// solve options (MaxIter 200, Tol 1e-6).
func climbGame(n int) (core.Profile, []float64, game.NashOptions, error) {
	us := make(core.Profile, n)
	r0 := make([]float64, n)
	for i := range us {
		u, err := cliutil.ParseUtility(climbSpecs[i%len(climbSpecs)])
		if err != nil {
			return nil, nil, game.NashOptions{}, err
		}
		us[i] = u
		r0[i] = 0.0025 + 0.001*float64(i*37%n)/float64(n)
	}
	return us, r0, game.NashOptions{MaxIter: 200, Tol: 1e-6}, nil
}

// climbClasses groups climbGame's n users by spec, numbered in order of
// first appearance, as greedd groups its clients.
func climbClasses(n int) []int {
	class := make([]int, n)
	for i := range class {
		class[i] = i % len(climbSpecs)
	}
	return class
}

// Cases returns the hot-path benchmark suite in emission order.  The
// class solver's scales are the classes layer's (classes.go).
func Cases() []Case {
	return []Case{
		{
			// One vector evaluated over and over: after the warm call the
			// workspace's argsort repair finds it already sorted, so this
			// times the O(n) sorted path.  The _cold case times the sort.
			Name: "fairshare_congestion_into_n64",
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
			// Two unrelated profiles alternating on one workspace: every
			// call runs the repair pass past its budget and then the sort
			// from scratch.
			Name: "fairshare_congestion_into_n64_cold",
			Bench: func(b *testing.B) {
				r0, r1 := rates64(), rates64Cold()
				if !core.Feasible(r0) || !core.Feasible(r1) {
					b.Fatal("hotpath: a cold-case profile is infeasible")
				}
				dst := make([]float64, len(r0))
				var ws core.Workspace
				(alloc.FairShare{}).CongestionInto(&ws, dst, r1) // warm
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r := r0
					if i%2 == 1 {
						r = r1
					}
					(alloc.FairShare{}).CongestionInto(&ws, dst, r)
				}
			},
		},
		{
			Name: "proportional_congestion_into_n64",
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
			Name: "bestresponse_fairshare_ws_n64",
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
			Name: "solvenash_fairshare_n128",
			// The per-user solve of the climb-shaped game from its posted
			// rates, the solve perfbench's traced climb replays; greedd's
			// own solve is solvenash_seeded_fairshare_n128.  Budgeted like
			// solvenash_fairshare_n8 (R and C).
			Budget: 2,
			Bench: func(b *testing.B) {
				us, r0, opt, err := climbGame(128)
				if err != nil {
					b.Fatal(err)
				}
				ws := game.NewWorkspace()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := game.SolveNashWS(context.Background(), ws, alloc.FairShare{}, us, r0, opt); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			Name: "solvenash_seeded_fairshare_n128",
			// greedd's solve stage on climb's profile: the class solve over
			// the four specs, then one per-user certifying sweep at its
			// answer.  Per solve: the class game, the class solve's R and
			// C and the mean rates it starts from, and the per-user R and
			// C.
			Budget: 6,
			Bench: func(b *testing.B) {
				us, r0, opt, err := climbGame(128)
				if err != nil {
					b.Fatal(err)
				}
				class := climbClasses(128)
				ws := game.NewWorkspace()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := game.SolveNashSeededWS(context.Background(), ws, alloc.FairShare{}, us, class, r0, opt); err != nil {
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
}
