package experiment

import (
	"io"
	"math"

	"greednet/internal/alloc"
	"greednet/internal/game"
	"greednet/internal/utility"
)

// E21ClassAggregation validates the class-aggregated solver and the
// heavy-traffic (fluid) limit against the exact per-user solver as the
// population grows: K = 4 linear classes over N = 64 → 10^6 users.  At
// each N the class solve must sit on the exact equilibrium (verified
// directly where the exact solve is affordable; the solver's own K = N
// bit-equality and K < N tolerance tests cover the arithmetic beyond
// that), and
// the scaled finite-N rates N·r_j must sit on the fluid equilibrium's
// ŷ_j — the error curve exact → aggregated → fluid.  The serial
// mechanism's scaled equilibrium is N-invariant for fixed class
// fractions (the reason the fluid limit exists at all), so the measured
// fluid gap is solver resolution — the finite solver's per-member
// tolerance amplified by N — not an O(1/N) drift; the gate bounds it at
// 10^-3 relative through N = 10^6.
func E21ClassAggregation() Experiment {
	e := Experiment{
		ID:     "E21",
		Source: "§2 model, N → ∞ scaling",
		Title:  "class aggregation error curve: exact vs aggregated vs fluid limit, N = 64 → 10^6",
	}
	e.Run = func(w io.Writer, opt Options) (Verdict, error) {
		if err := header(w, e); err != nil {
			return Verdict{}, err
		}
		ctx := opt.Context()
		const k = 4
		gammas := []float64{0.2, 0.35, 0.5, 0.65}
		ns := []int{64, 256, 1024, 16384, 262144, 1048576}
		exactMaxN := 256 // exact per-user solve is O(N²·log N) per round
		if opt.Fast {
			ns = []int{64, 1024, 1048576}
			exactMaxN = 64
		}

		// classGameAt builds the K-class game at population n: equal
		// shares, total start load 0.4 spread per member.
		classGameAt := func(n int) (game.ClassGame, error) {
			classes := make([]game.Class, k)
			for j, g := range gammas {
				classes[j] = game.Class{
					U:     utility.NewLinear(1, g),
					Rate:  0.4 / float64(n),
					Count: n / k,
				}
			}
			return game.NewClassGame(classes)
		}

		// The fluid equilibrium is solved once in scaled units; class
		// shares are the same at every N, so it is the single limit all
		// finite-N solves must approach.
		cgRef, err := classGameAt(ns[0])
		if err != nil {
			return Verdict{}, err
		}
		fl, err := game.SolveNashFluid(ctx, alloc.FairShare{}, cgRef, game.NashOptions{})
		if err != nil {
			return Verdict{}, err
		}
		if !fl.Converged {
			return Verdict{}, errf("fluid solve did not converge")
		}

		match := true
		var fluidErrs []float64
		tb := newTable(w)
		tb.row("N", "iters", "max|r_class − r_exact|", "max rel|N·r − ŷ| (fluid)")
		ws := game.NewWorkspace()
		for _, n := range ns {
			cg, err := classGameAt(n)
			if err != nil {
				return Verdict{}, err
			}
			res, err := game.SolveNashClassWS(ctx, ws, alloc.FairShare{}, cg, nil, game.NashOptions{})
			if err != nil {
				return Verdict{}, err
			}
			if !res.Converged {
				return Verdict{}, errf("class solve at N=%d did not converge", n)
			}

			// Exact per-user check where affordable: the aggregated
			// equilibrium read at each class's first member.
			exactCell := interface{}("—")
			if n <= exactMaxN {
				us, r0 := cg.Expand()
				xres, err := game.SolveNashCtx(ctx, alloc.FairShare{}, us, r0, game.NashOptions{})
				if err != nil {
					return Verdict{}, err
				}
				if !xres.Converged {
					return Verdict{}, errf("exact solve at N=%d did not converge", n)
				}
				worst, pos := 0.0, 0
				for j, c := range cg.Classes {
					if d := math.Abs(res.R[j] - xres.R[pos]); d > worst {
						worst = d
					}
					pos += c.Count
				}
				exactCell = worst
				// The two solvers iterate the same map; at the same
				// tolerance they must land on the same equilibrium to
				// well under the per-member rate scale 0.4/N.
				if worst > 1e-6/float64(n)*64 {
					match = false
				}
			}

			// Fluid comparison: scaled finite-N rates against ŷ.
			fworst := 0.0
			for j := range cg.Classes {
				d := math.Abs(float64(n)*res.R[j]-fl.Y[j]) / math.Max(fl.Y[j], 1e-12)
				if d > fworst {
					fworst = d
				}
			}
			fluidErrs = append(fluidErrs, fworst)
			tb.row(n, res.Iters, exactCell, fworst)
		}
		if err := tb.flush(); err != nil {
			return Verdict{}, err
		}

		// The fluid gap must stay within solver resolution everywhere:
		// per-member tolerance 1e-9 amplified by N bounds the scaled error
		// near 1e-3 at N = 10^6, and far below that at small N.
		for _, fe := range fluidErrs {
			if fe > 1e-3 {
				match = false
			}
		}
		return verdictLine(w, match,
			"aggregated solve sits on the exact equilibrium where both run, and N·r sits on the fluid ŷ within N-amplified solver tolerance at every N up to 10^6")
	}
	return e
}
