package experiment

import (
	"io"
	"math"

	"greednet/internal/alloc"
	"greednet/internal/des"
	"greednet/internal/network"
	"greednet/internal/parallel"
)

// E19Tandem quantifies the §5.4 Poisson approximation on a simulated
// two-switch tandem: a FIFO tandem matches the approximation exactly
// (Burke's theorem gives Jackson product form), while a Fair Share
// (priority) tandem — whose first-stage output is not Poisson — deviates
// only modestly, supporting the paper's use of the approximation for the
// network generalization.
func E19Tandem() Experiment {
	e := Experiment{
		ID:     "E19",
		Source: "§5.4 (network of switches, output-process caveat)",
		Title:  "tandem simulation: Poisson approximation exact for FIFO, mild drift for Fair Share",
	}
	e.Run = func(w io.Writer, opt Options) (Verdict, error) {
		if err := header(w, e); err != nil {
			return Verdict{}, err
		}
		horizon := 5e5
		if opt.Fast {
			horizon = 6e4
		}
		seed := opt.SeedOr(1919)
		long, crossA, crossB := 0.15, 0.35, 0.3
		rates := []float64{long, crossA, crossB}
		routes := [][]int{{0, 1}, {0}, {1}}
		match := true

		cases := []struct {
			name string
			mk   func() des.Discipline
			al   interface {
				Congestion(r []float64) []float64
				CongestionOf(r []float64, i int) float64
				Name() string
			}
		}{
			{"fifo", func() des.Discipline { return &des.FIFO{} }, alloc.Proportional{}},
			{"fair-share", func() des.Discipline { return &des.FairShareSplitter{} }, alloc.FairShare{}},
		}
		// The two tandems are independent: simulate them concurrently,
		// then render in case order.
		ctx := opt.Context()
		sims := make([]des.TandemResult, len(cases))
		if err := parallel.MapOrderedCtx(ctx, 0, len(cases), func(k int) error {
			var err error
			sims[k], err = des.RunTandemCtx(ctx, des.TandemConfig{
				LongRates: []float64{long},
				CrossA:    []float64{crossA},
				CrossB:    []float64{crossB},
				NewDisc:   cases[k].mk,
				Horizon:   horizon,
				Seed:      seed,
			})
			return err
		}); err != nil {
			return Verdict{}, err
		}
		tb := newTable(w)
		tb.row("disc", "user", "route", "measured Σ queue", "Poisson approx", "rel dev")
		maxDev := map[string]float64{}
		for k, tc := range cases {
			res := sims[k]
			nw, err := network.New(2, routes, tc.al)
			if err != nil {
				return Verdict{}, err
			}
			want := nw.Congestion(rates)
			routesStr := []string{"A→B", "A", "B"}
			worst := 0.0
			for u := range rates {
				rel := math.Abs(res.TotalQueue[u]-want[u]) / want[u]
				if rel > worst {
					worst = rel
				}
				tb.row(tc.name, u, routesStr[u], res.TotalQueue[u], want[u], rel)
			}
			maxDev[tc.name] = worst
		}
		if err := tb.flush(); err != nil {
			return Verdict{}, err
		}
		tb2 := newTable(w)
		tb2.row("disc", "max relative deviation", "within expectation?")
		fifoOK := maxDev["fifo"] < 0.05
		fsOK := maxDev["fair-share"] < 0.2
		tb2.row("fifo (Jackson exact)", maxDev["fifo"], yesno(fifoOK))
		tb2.row("fair-share (approximate)", maxDev["fair-share"], yesno(fsOK))
		if err := tb2.flush(); err != nil {
			return Verdict{}, err
		}
		if !fifoOK || !fsOK {
			match = false
		}
		return verdictLine(w, match,
			"the §5.4 Poisson approximation is exact for FIFO tandems and within ~20% for Fair Share tandems")
	}
	return e
}
