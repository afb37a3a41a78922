package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"greednet/internal/alloc"
	"greednet/internal/core"
	"greednet/internal/plot"
	"greednet/internal/sweep"
	"greednet/internal/utility"
)

// runSweep is greedsim sweep: it generates the reproduction's
// parameter-sweep data series — the figure data — as CSV, or renders
// one as an ASCII chart.  The per-row work fans out over GOMAXPROCS;
// the rows are the same for any core count.
func runSweep(args []string) {
	fs := flag.NewFlagSet("greedsim sweep", flag.ExitOnError)
	var (
		name    = fs.String("sweep", "eigen", "eigen|gap|protection|ghc|delay|newton|reaction")
		n       = fs.Int("n", 4, "number of users (eigen, ghc, newton)")
		out     = fs.String("csv", "", "write CSV to this path (default stdout)")
		chart   = fs.Bool("chart", false, "render an ASCII chart instead of CSV")
		list    = fs.Bool("list", false, "list sweeps and exit")
		timeout = fs.Duration("timeout", 0, "deadline for the sweep; exceeding it prints FAILED(deadline) and exits 1 (0 disables)")
	)
	parse(fs, args)
	if *n < 1 {
		check(fmt.Errorf("-n %d: need at least 1 user", *n))
	}
	ctx, cancel := withTimeout(*timeout)
	defer cancel()

	if *list {
		fmt.Println("eigen       ρ(A) vs γ under FIFO (§4.2.3 instability)")
		fmt.Println("gap         FIFO efficiency loss vs population size (§4.1.1)")
		fmt.Println("protection  victim congestion vs attacker rate (Thm 8)")
		fmt.Println("ghc         learning box width per round (Thm 5)")
		fmt.Println("delay       light-flow delay vs bulk load (§5.2)")
		fmt.Println("newton      Newton residual per step (Thm 7)")
		fmt.Println("reaction    best-reply curves vs opponent rate (insulation)")
		return
	}

	tab, series, logY, err := build(ctx, *name, *n)
	checkRun(err, "sweep", *timeout)
	if *chart {
		fmt.Printf("sweep %s\n", tab.Name)
		fmt.Print(plot.Chart{Width: 64, Height: 14, LogY: logY}.Render(series...))
		return
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		check(err)
		// A short write can surface only at close; don't report success
		// for a truncated CSV.
		defer func() { check(f.Close()) }()
		w = f
	}
	check(tab.WriteCSV(w))
}

// build constructs the requested sweep plus chart series.
func build(ctx context.Context, name string, n int) (sweep.Table, []plot.Series, bool, error) {
	switch name {
	case "eigen":
		gammas := []float64{0.8, 0.5, 0.3, 0.2, 0.1, 0.05, 0.02, 0.01, 0.004}
		tab, err := sweep.EigenvalueCtx(ctx, 0, n, gammas)
		return tab, []plot.Series{
			{Name: "rho(A)", Y: tab.Column("rho")},
			{Name: "limit N-1", Y: tab.Column("limit")},
		}, false, err
	case "gap":
		ns := []int{2, 3, 4, 6, 8, 12, 16}
		tab, err := sweep.EfficiencyGapCtx(ctx, 0, 0.2, ns)
		return tab, []plot.Series{
			{Name: "relative loss", Y: tab.Column("relative_loss")},
		}, false, err
	case "protection":
		var atk []float64
		for a := 0.05; a <= 2.0; a += 0.05 {
			atk = append(atk, a)
		}
		tab, err := sweep.ProtectionCtx(ctx, 0.1, 2, atk)
		return tab, []plot.Series{
			{Name: "victim under FIFO", Y: tab.Column("victim_c_fifo")},
			{Name: "victim under Fair Share", Y: tab.Column("victim_c_fairshare")},
			{Name: "bound", Y: tab.Column("bound")},
		}, true, err
	case "ghc":
		tab, err := sweep.GHCWidthsCtx(ctx, n, 0.25, 14)
		return tab, []plot.Series{
			{Name: "Fair Share box width", Y: tab.Column("width_fairshare")},
			{Name: "FIFO box width", Y: tab.Column("width_fifo")},
		}, true, err
	case "delay":
		var bulk []float64
		for b := 0.05; b <= 0.95; b += 0.05 {
			bulk = append(bulk, b)
		}
		tab, err := sweep.InteractiveDelayCtx(ctx, 0.02, bulk)
		return tab, []plot.Series{
			{Name: "FIFO delay", Y: tab.Column("delay_fifo")},
			{Name: "Fair Share delay", Y: tab.Column("delay_fairshare")},
		}, true, err
	case "newton":
		tab, err := sweep.NewtonResidualsCtx(ctx, 0, n, 8)
		return tab, []plot.Series{
			{Name: "Fair Share residual", Y: tab.Column("resid_fairshare")},
			{Name: "FIFO residual", Y: tab.Column("resid_fifo")},
		}, true, err
	case "reaction":
		us := core.Profile{
			utility.NewLinear(1, 0.25),
			utility.NewLinear(1, 0.25),
		}
		tab, err := sweep.ReactionCurvesCtx(ctx, alloc.FairShare{}, us, 40)
		if err != nil {
			return tab, nil, false, err
		}
		tabF, err := sweep.ReactionCurvesCtx(ctx, alloc.Proportional{}, us, 40)
		if err != nil {
			return tab, nil, false, err
		}
		return tab, []plot.Series{
			{Name: "FS best reply", Y: tab.Column("br_user1")},
			{Name: "FIFO best reply", Y: tabF.Column("br_user1")},
		}, false, nil
	default:
		return sweep.Table{}, nil, false, fmt.Errorf("unknown sweep %q (use -list)", name)
	}
}
