// Command greedsim computes game-theoretic operating points of the
// single-switch model: Nash equilibria, Stackelberg equilibria, Pareto
// diagnostics, envy, and protection, for a chosen service discipline and
// utility profile.
//
// Examples:
//
//	greedsim -disc fair-share -profile "linear:1,0.2;linear:1,0.3"
//	greedsim -disc fifo -profile "linear:1,0.2;linear:1,0.2" -mode stackelberg -leader 0
//	greedsim -disc fair-share -profile "linear:1,0.25;log:0.3,1" -mode envy
//	greedsim -disc fair-share -mode nash -multistart 32 -seed 7
//	greedsim -classes "500000xlinear:1,0.2@4e-7;500000xlinear:1,0.5@4e-7" -fluid
//
// With -classes the profile is class-aggregated: COUNTxSPEC@RATE entries
// describe K utility classes carrying N = ΣCOUNT users, solved by the
// O(K)-per-step class solver — a million-user game is as cheap as a
// K-user one.  -fluid additionally solves the N → ∞ fluid limit and
// prints the scaled per-class rates next to their finite-N counterparts.
//
// With -timeout the cooperative modes (nash, pareto, envy, dynamics,
// coalition) run their solves under a deadline; a solve that exceeds it
// prints FAILED(deadline) and exits non-zero.  -multistart N solves from
// N random starting points (seeded by -seed) and reports the distinct
// equilibria found plus the number of starts dropped for non-convergence.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"greednet/internal/cliutil"
	"greednet/internal/core"
	"greednet/internal/dynamics"
	"greednet/internal/game"
	"greednet/internal/mm1"
	"greednet/internal/numeric"
	"greednet/internal/plot"
	"greednet/internal/randdist"
	"greednet/internal/workload"
)

func main() {
	var (
		discName = flag.String("disc", "fair-share", "allocation: fair-share|proportional|hol|hol-largest|blend:θ")
		profile  = flag.String("profile", "linear:1,0.2;linear:1,0.3", "semicolon-separated utility specs")
		mode     = flag.String("mode", "nash", "nash|stackelberg|pareto|envy|protect|dynamics|coalition")
		leader   = flag.Int("leader", 0, "leader index for -mode stackelberg")
		startStr = flag.String("start", "", "starting rates (default 0.1 each)")
		rounds   = flag.Int("rounds", 400, "rounds for -mode dynamics")
		scenario = flag.String("scenario", "", "named scenario overriding -profile: symmetric:N,γ | ftptelnet | cheater:V,R | mixed | random:N,SEED")
		timeout  = flag.Duration("timeout", 0, "deadline for the solve; exceeding it prints FAILED(deadline) and exits 1 (0 disables)")
		nstarts  = flag.Int("multistart", 0, "solve -mode nash from N random starts and report distinct equilibria and dropped starts (0 disables)")
		msSeed   = flag.Int64("seed", 1, "RNG seed for the -multistart starting points")
		classStr = flag.String("classes", "", "class-aggregated profile \"COUNTxSPEC@RATE;...\" solved by the O(K) class solver instead of -profile")
		fluidOn  = flag.Bool("fluid", false, "with -classes: also solve the N→∞ fluid limit and print scaled per-class rates")
	)
	flag.Parse()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	a, err := cliutil.ParseAlloc(*discName)
	fatalIf(err)
	if *classStr != "" {
		runClasses(ctx, a, *classStr, *fluidOn, *timeout)
		return
	}
	var us core.Profile
	var start []float64
	var free []bool
	if *scenario != "" {
		sc, err := workload.Parse(*scenario)
		fatalIf(err)
		fmt.Printf("scenario %s (%d users)\n", sc.Name, len(sc.Users))
		us, start, free = sc.Users, sc.Start, sc.Free
	} else {
		us, err = cliutil.ParseProfile(*profile)
		fatalIf(err)
		start = make([]float64, len(us))
		for i := range start {
			start[i] = 0.1
		}
	}
	n := len(us)
	if *startStr != "" {
		start, err = cliutil.ParseRates(*startStr)
		fatalIf(err)
		if len(start) != n {
			fatalIf(fmt.Errorf("start has %d rates for %d users", len(start), n))
		}
	}
	if !core.Feasible(start) {
		fatalIf(fmt.Errorf("start rates %v are infeasible: need every r_i > 0 and Σr < 1", start))
	}

	switch *mode {
	case "nash":
		if *nstarts > 0 {
			runMultiStart(ctx, a, us, free, *nstarts, *msSeed, *timeout)
			return
		}
		res, err := game.SolveNashCtx(ctx, a, us, start, game.NashOptions{Free: free})
		fatalSolve(err, *timeout)
		printPoint(a.Name()+" Nash equilibrium", us, core.Point{R: res.R, C: res.C})
		fmt.Printf("converged=%v iters=%d maxDeviationGain=%.3g\n",
			res.Converged, res.Iters, res.MaxGain)
	case "stackelberg":
		adv, st, nash, err := game.LeaderAdvantage(a, us, *leader, start, game.StackOptions{})
		fatalIf(err)
		printPoint(a.Name()+" Nash equilibrium", us, core.Point{R: nash.R, C: nash.C})
		printPoint(fmt.Sprintf("%s Stackelberg (leader %d)", a.Name(), *leader),
			us, core.Point{R: st.R, C: st.C})
		fmt.Printf("leader advantage over Nash: %.6g\n", adv)
	case "pareto":
		res, err := game.SolveNashCtx(ctx, a, us, start, game.NashOptions{Free: free})
		fatalSolve(err, *timeout)
		p := core.Point{R: res.R, C: res.C}
		printPoint(a.Name()+" Nash equilibrium", us, p)
		resid := game.ParetoResidual(us, p)
		fmt.Printf("Pareto FDC residual: %v (‖·‖∞ = %.3g; zero ⇒ candidate Pareto point)\n",
			resid, numeric.VecNormInf(resid))
	case "envy":
		res, err := game.SolveNashCtx(ctx, a, us, start, game.NashOptions{Free: free})
		fatalSolve(err, *timeout)
		p := core.Point{R: res.R, C: res.C}
		printPoint(a.Name()+" Nash equilibrium", us, p)
		amount, i, j := game.MaxEnvy(us, p)
		if amount <= 1e-9 {
			fmt.Println("allocation is envy-free")
		} else {
			fmt.Printf("max envy: user %d envies user %d by %.6g\n", i, j, amount)
		}
	case "protect":
		slacks := game.ProtectionSlack(a, start)
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "user\trate\tbound r/(1−Nr)\tC_i\tslack") //lint:allow errdrop console tabwriter over stdout: best-effort like fmt.Printf
		c := a.Congestion(start)
		for i := range start {
			fmt.Fprintf(tw, "%d\t%.4g\t%.4g\t%.4g\t%.4g\n", //lint:allow errdrop console tabwriter over stdout: best-effort like fmt.Printf
				i, start[i], mm1.ProtectionBound(n, start[i]), c[i], slacks[i])
		}
		tw.Flush() //lint:allow errdrop console tabwriter over stdout: best-effort like fmt.Printf
	case "dynamics":
		traj, err := dynamics.HillClimbCtx(ctx, a, us, start, dynamics.HillClimbOptions{
			Rounds: *rounds,
			Step:   0.005,
		})
		fatalSolve(err, *timeout)
		series := make([]plot.Series, n)
		for i := 0; i < n; i++ {
			series[i] = plot.Series{
				Name: fmt.Sprintf("user %d rate", i),
				Y:    plot.Column(traj, i),
			}
		}
		fmt.Printf("incremental hill climbing under %s (%d rounds):\n", a.Name(), *rounds)
		fmt.Print(plot.Chart{Width: 64, Height: 14}.Render(series...))
		final := traj[len(traj)-1]
		printPoint("final point", us, core.At(a, final))
	case "coalition":
		res, err := game.SolveNashCtx(ctx, a, us, start, game.NashOptions{Free: free})
		fatalSolve(err, *timeout)
		printPoint(a.Name()+" Nash equilibrium", us, core.Point{R: res.R, C: res.C})
		rng := randdist.NewRand(1)
		w := game.StrongEquilibriumCheck(a, us, res.R, rng, 1000)
		if w == nil {
			fmt.Println("no improving coalition found: the equilibrium is (empirically) strong")
		} else {
			fmt.Printf("coalition %v improves jointly: rates %v, gains %v\n",
				w.Members, w.Rates, w.Gains)
		}
	default:
		fatalIf(fmt.Errorf("unknown mode %q", *mode))
	}
}

func printPoint(title string, us core.Profile, p core.Point) {
	fmt.Println(title + ":")
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "user\trate r_i\tcongestion c_i\tutility U_i") //lint:allow errdrop console tabwriter over stdout: best-effort like fmt.Printf
	for i := range p.R {
		fmt.Fprintf(tw, "%d\t%.6g\t%.6g\t%.6g\n", i, p.R[i], p.C[i], us[i].Value(p.R[i], p.C[i])) //lint:allow errdrop console tabwriter over stdout: best-effort like fmt.Printf
	}
	tw.Flush() //lint:allow errdrop console tabwriter over stdout: best-effort like fmt.Printf
	// Diagnostic footer for whatever point the solver produced; an
	// out-of-domain point prints ±Inf, which is the honest report.
	fmt.Printf("total load %.4g, total queue %.4g (M/M/1 predicts %.4g)\n",
		mm1.Sum(p.R), mm1.Sum(p.C), mm1.G(mm1.Sum(p.R))) //lint:allow feasguard diagnostic print of the solver's point; ±Inf is the honest rendering
}

// runClasses solves the class-aggregated game given by -classes with
// the O(K)-per-step class solver and prints one row per class; with
// -fluid it also solves the N → ∞ fluid limit and prints the scaled
// per-class rates next to their finite-N counterparts.  The printing
// loops live in ctx-free helpers: by the time anything prints, the
// solve is done and there is nothing left to cancel.
func runClasses(ctx context.Context, a core.Allocation, spec string, fluid bool, timeout time.Duration) {
	classes, err := cliutil.ParseClasses(spec)
	fatalIf(err)
	cg, err := game.NewClassGame(classes)
	fatalIf(err)
	if load := classLoad(cg, cg.Rates()); load >= 1 {
		fatalIf(fmt.Errorf("class starting rates are infeasible: Σ count·rate = %.4g ≥ 1", load))
	}
	res, err := game.SolveNashClassWS(ctx, nil, a, cg, nil, game.NashOptions{})
	fatalSolve(err, timeout)
	printClassPoint(a, cg, res)
	if !fluid {
		return
	}
	fr, err := game.SolveNashFluid(ctx, a, cg, game.NashOptions{})
	fatalSolve(err, timeout)
	printFluidPoint(cg, res, fr)
}

// classLoad is the total offered load Σ_j Count_j·r_j of per-class
// rates r.
func classLoad(cg game.ClassGame, r []float64) float64 {
	total := 0.0
	for j, c := range cg.Classes {
		total += float64(c.Count) * r[j]
	}
	return total
}

// printClassPoint renders a class-aggregated equilibrium, one row per
// class in canonical order.
func printClassPoint(a core.Allocation, cg game.ClassGame, res game.NashResult) {
	fmt.Printf("%s class-aggregated Nash equilibrium (K=%d classes, N=%d users):\n",
		a.Name(), cg.K(), cg.N())
	fmt.Printf("%-6s %9s %-16s %12s %14s %12s\n",
		"class", "count", "utility", "rate r_j", "congestion c_j", "payoff U_j")
	for j, c := range cg.Classes {
		fmt.Printf("%-6d %9d %-16s %12.6g %14.6g %12.6g\n",
			j, c.Count, game.UtilitySpec(c.U), res.R[j], res.C[j], c.U.Value(res.R[j], res.C[j]))
	}
	fmt.Printf("converged=%v iters=%d maxDeviationGain=%.3g total load %.4g\n",
		res.Converged, res.Iters, res.MaxGain, classLoad(cg, res.R))
}

// printFluidPoint renders the N → ∞ fluid equilibrium beside the
// finite-N class solve: ŷ_j = lim N·ρ_j, so the finite-N column is
// N·r_j and the two converge as N grows.
func printFluidPoint(cg game.ClassGame, res game.NashResult, fr game.FluidResult) {
	n := float64(cg.N())
	fmt.Printf("fluid limit (N→∞, scaled ŷ_j = lim N·ρ_j): converged=%v iters=%d maxScaledGain=%.3g\n",
		fr.Converged, fr.Iters, fr.MaxGain)
	fmt.Printf("%-6s %14s %14s %14s\n", "class", "ŷ_j (fluid)", "N·r_j (finite)", "ĉ_j (fluid)")
	for j := range cg.Classes {
		fmt.Printf("%-6d %14.6g %14.6g %14.6g\n", j, fr.Y[j], n*res.R[j], fr.Chat[j])
	}
}

// runMultiStart solves from n random feasible starting points and
// reports the distinct equilibria plus the starts dropped for
// non-convergence (or abandoned to the deadline).
func runMultiStart(ctx context.Context, a core.Allocation, us core.Profile, free []bool, n int, seed int64, timeout time.Duration) {
	rng := randdist.NewRand(seed)
	users := len(us)
	sts := make([][]float64, n)
	//lint:allow ctxflow O(starts*users) RNG draws before any solve begins; the deadline governs the solve, not its setup
	for m := range sts {
		s := make([]float64, users)
		for i := range s {
			// Scaled so Σs < users/(users+1) < 1: every start is feasible.
			s[i] = (0.01 + 0.98*rng.Float64()) / float64(users+1)
		}
		sts[m] = s
	}
	ms, err := game.MultiStartNashCtx(ctx, 0, a, us, sts, game.NashOptions{Free: free}, 1e-4)
	fatalSolve(err, timeout)
	fmt.Printf("%s multi-start: %d starts (seed %d), %d converged, %d distinct equilibria, %d dropped\n",
		a.Name(), n, seed, len(ms.All), len(ms.Distinct), ms.Dropped)
	//lint:allow ctxflow printing the handful of distinct equilibria after the solve finished; nothing left to cancel
	for i, res := range ms.Distinct {
		printPoint(fmt.Sprintf("equilibrium %d (reached by first start at iters=%d)", i, res.Iters),
			us, core.Point{R: res.R, C: res.C})
	}
	if ms.Dropped > 0 {
		fmt.Fprintf(os.Stderr, "greedsim: %d of %d starts dropped (solver error or non-convergence)\n",
			ms.Dropped, n)
		os.Exit(1)
	}
}

// fatalSolve reports a solve error; deadline and cancellation errors get
// the FAILED(...) rendering so scripts can grep for them.
func fatalSolve(err error, timeout time.Duration) {
	if err == nil {
		return
	}
	switch {
	case errors.Is(err, core.ErrDeadline) && timeout > 0:
		fmt.Fprintf(os.Stderr, "greedsim: FAILED(deadline): solve exceeded the %v deadline\n", timeout)
	case errors.Is(err, core.ErrDeadline) || errors.Is(err, core.ErrCanceled):
		fmt.Fprintf(os.Stderr, "greedsim: FAILED(%s): %v\n", reasonOf(err), err)
	default:
		fmt.Fprintln(os.Stderr, "greedsim:", err)
	}
	os.Exit(1)
}

// reasonOf maps a context-flavored error to its FAILED tag.
func reasonOf(err error) string {
	if errors.Is(err, core.ErrDeadline) {
		return "deadline"
	}
	return "canceled"
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "greedsim:", err)
		os.Exit(1)
	}
}
