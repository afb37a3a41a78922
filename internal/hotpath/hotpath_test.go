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

// BenchmarkHotpaths runs every registered case as a sub-benchmark, so
// `go test -bench Hotpaths ./internal/hotpath` reports the same numbers
// `greedbench -bench hotpath` writes to BENCH_hotpath.json.
func BenchmarkHotpaths(b *testing.B) {
	for _, c := range Cases() {
		b.Run(c.Name, c.Bench)
	}
}

// Every case must measure at or under its allocation budget per
// operation once its workspace is warm — zero for the fast paths, the
// audited result-allocation count for the end-to-end cases.  This is the
// hotpath layer's allocs/op budget, run here directly so a plain
// `go test` catches a path that started escaping to the heap.
func TestGatedCasesWithinAllocBudget(t *testing.T) {
	r := rates64()
	dst := make([]float64, len(r))
	var ws core.Workspace
	var u core.Utility = utility.NewLinear(1, 0.25)
	gws := game.NewWorkspace()
	game.BestResponseWS(gws, alloc.FairShare{}, u, r, 5, game.BROptions{}) // warm

	us := utility.Identical(utility.NewLinear(1, 0.25), 8)
	r0 := make([]float64, 8)
	for i := range r0 {
		r0[i] = 0.4 / 8
	}
	nws := game.NewWorkspace()
	cold0, cold1 := rates64(), rates64Cold()
	var coldWS core.Workspace
	calls := 0
	cus, cr0, copt, err := climbGame(128)
	if err != nil {
		t.Fatal(err)
	}
	cws := game.NewWorkspace()

	checks := map[string]func(){
		"fairshare_congestion_into_n64": func() {
			(alloc.FairShare{}).CongestionInto(&ws, dst, r)
		},
		"fairshare_congestion_into_n64_cold": func() {
			calls++
			r := cold0
			if calls%2 == 1 {
				r = cold1
			}
			(alloc.FairShare{}).CongestionInto(&coldWS, dst, r)
		},
		"solvenash_fairshare_n128": func() {
			if _, err := game.SolveNashWS(context.Background(), cws, alloc.FairShare{}, cus, cr0, copt); err != nil {
				t.Fatal(err)
			}
		},
		"proportional_congestion_into_n64": func() {
			(alloc.Proportional{}).CongestionInto(&ws, dst, r)
		},
		"bestresponse_fairshare_ws_n64": func() {
			game.BestResponseWS(gws, alloc.FairShare{}, u, r, 5, game.BROptions{})
		},
		"solvenash_fairshare_n8": func() {
			if _, err := game.SolveNashWS(context.Background(), nws, alloc.FairShare{}, us, r0, game.NashOptions{}); err != nil {
				t.Fatal(err)
			}
		},
		"des_run": func() {
			cfg := des.Config{
				Rates:      []float64{0.2, 0.3, 0.2},
				Discipline: &des.FIFO{},
				Horizon:    2000,
				Seed:       11,
			}
			if _, err := des.Run(cfg); err != nil {
				t.Fatal(err)
			}
		},
	}
	for _, c := range Cases() {
		fn, ok := checks[c.Name]
		if !ok {
			t.Fatalf("case %q has no AllocsPerRun check; add one", c.Name)
		}
		fn() // warm outside the measured runs
		if allocs := testing.AllocsPerRun(200, fn); allocs > float64(c.Budget) {
			t.Errorf("%s: %.1f allocs/op, want <= %d", c.Name, allocs, c.Budget)
		}
	}
}

// Case metadata must be coherent: names unique and non-empty.
func TestCaseMetadata(t *testing.T) {
	names := make(map[string]bool)
	for _, c := range Cases() {
		if c.Name == "" || c.Bench == nil {
			t.Fatalf("case %+v missing name or bench", c)
		}
		if names[c.Name] {
			t.Fatalf("duplicate case name %q", c.Name)
		}
		names[c.Name] = true
	}
}
