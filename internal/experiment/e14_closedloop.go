package experiment

import (
	"io"

	"greednet/internal/alloc"
	"greednet/internal/core"
	"greednet/internal/des"
	"greednet/internal/game"
	"greednet/internal/numeric"
	"greednet/internal/parallel"
	"greednet/internal/selfish"
	"greednet/internal/utility"
)

// E14ClosedLoop validates the paper's premise 2 end to end: blind
// stochastic hill climbers that observe only their own simulated service
// (no model, no analytic allocation, no knowledge of others) settle on the
// Nash equilibrium of the discipline-induced allocation function — the
// efficient Fair Share point under FS, the overgrazed point under FIFO.
func E14ClosedLoop() Experiment {
	e := Experiment{
		ID:     "E14",
		Source: "§2.1 premise 2, §2.2 (hill-climbing users)",
		Title:  "closed loop: blind hill climbers over the simulator land on the analytic Nash point",
	}
	e.Run = func(w io.Writer, opt Options) (Verdict, error) {
		if err := header(w, e); err != nil {
			return Verdict{}, err
		}
		seed := opt.SeedOr(1414)
		n := 3
		gamma := 0.25
		us := utility.Identical(utility.NewLinear(1, gamma), n)
		start := []float64{0.05, 0.3, 0.15}
		so := selfish.Options{Seed: seed}
		if opt.Fast {
			so.Rounds = 25
			so.Epoch = 2000
		}

		cases := []struct {
			name    string
			factory selfish.DisciplineFactory
			analyt  core.Allocation
		}{
			{"fair-share", func() des.Discipline { return &des.FairShareSplitter{} }, alloc.FairShare{}},
			{"fifo", func() des.Discipline { return &des.FIFO{} }, alloc.Proportional{}},
		}
		tb := newTable(w)
		tb.row("switch", "settled rates (tail avg)", "analytic Nash", "‖settled − Nash‖∞", "epochs", "on target?")
		match := true
		tol := 0.035
		if opt.Fast {
			tol = 0.06
		}
		// The two switches are independent closed loops: run them at the
		// same time, then render in case order.
		ctx := opt.Context()
		nash := make([]game.NashResult, len(cases))
		runs := make([]selfish.Result, len(cases))
		if err := parallel.MapOrderedCtx(ctx, 0, len(cases), func(k int) error {
			tc := cases[k]
			var err error
			nash[k], err = game.SolveNashCtx(ctx, tc.analyt, us, start, game.NashOptions{})
			if err != nil || !nash[k].Converged {
				if cerr := core.CtxErr(ctx); cerr != nil {
					return cerr
				}
				return errf("analytic Nash failed for %s", tc.name)
			}
			runs[k], err = selfish.RunCtx(ctx, tc.factory, us, start, so)
			return err
		}); err != nil {
			return Verdict{}, err
		}
		for k, tc := range cases {
			settled := runs[k].TailAverage(10)
			dist := numeric.VecDist(settled, nash[k].R)
			ok := dist <= tol
			if !ok {
				match = false
			}
			tb.row(tc.name, fmtVec(settled), fmtVec(nash[k].R), dist, runs[k].Epochs, yesno(ok))
		}
		if err := tb.flush(); err != nil {
			return Verdict{}, err
		}
		return verdictLine(w, match,
			"selfish measurement-driven optimizers reproduce the predicted equilibria of both disciplines")
	}
	return e
}
