package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"text/tabwriter"

	"greednet/internal/alloc"
	"greednet/internal/cliutil"
	"greednet/internal/des"
	"greednet/internal/mm1"
	"greednet/internal/randdist"
)

// runDES is greedsim des: it runs the discrete-event switch simulator
// under a chosen service discipline and compares the measured per-user
// average queues against the analytic allocation functions.  -cv2 picks
// the general-service (M/G/1) engine; -trace writes a per-packet CSV
// from the memoryless one.
func runDES(args []string) {
	fs := flag.NewFlagSet("greedsim des", flag.ExitOnError)
	var (
		ratesStr = fs.String("rates", "0.1,0.15,0.2,0.25", "comma-separated Poisson rates (Σ < 1)")
		discName = fs.String("disc", "fairshare", "fifo|lifo|ps|holps|fairshare|ratepriority")
		horizon  = fs.Float64("horizon", 2e5, "simulated time after warmup")
		seed     = fs.Int64("seed", 1, "random seed")
		cv2      = fs.Float64("cv2", -1, "service-time CV² for the general-service engine (−1 = exponential fast path)")
		traceOut = fs.String("trace", "", "write a per-packet CSV trace to this path (memoryless engine only)")
		timeout  = fs.Duration("timeout", 0, "wall-clock deadline for the simulation; exceeding it prints FAILED(deadline) and exits 1 (0 disables)")
	)
	parse(fs, args)
	if !(*horizon > 0) || math.IsInf(*horizon, 1) {
		check(fmt.Errorf("-horizon %v: need a positive, finite simulated time", *horizon))
	}
	ctx, cancel := withTimeout(*timeout)
	defer cancel()

	rates, err := cliutil.ParseRates(*ratesStr)
	check(err)
	if !mm1.InDomain(rates) {
		check(fmt.Errorf("rates %v are infeasible: need every r_i > 0 and Σr < 1", rates))
	}

	var tracer *des.Tracer
	if *traceOut != "" {
		if *cv2 >= 0 {
			check(fmt.Errorf("-trace is only supported with the memoryless engine (omit -cv2)"))
		}
		tracer = des.NewTracer(0)
	}

	var res des.Result
	var discLabel string
	if *cv2 >= 0 {
		// General-service engine: fifo | fairshare | ratepriority.
		var cls des.Classifier
		switch *discName {
		case "fifo":
			cls = des.SingleClass{}
		case "fairshare", "fair-share", "fs":
			cls = &des.SerialClass{}
		case "ratepriority", "priority":
			cls = &des.RankClass{}
		default:
			check(fmt.Errorf("general-service engine supports fifo|fairshare|ratepriority, not %q", *discName))
		}
		discLabel = fmt.Sprintf("%s (M/G/1, cv²=%g)", cls.Name(), *cv2)
		res, err = des.RunGCtx(ctx, des.GConfig{
			Rates:    rates,
			Service:  randdist.FromCV2(*cv2),
			Classify: cls,
			Horizon:  *horizon,
			Seed:     *seed,
		})
		checkRun(err, "simulation", *timeout)
	} else {
		disc, err := cliutil.ParseDiscipline(*discName)
		check(err)
		discLabel = disc.Name() + " (M/M/1)"
		cfg := des.Config{
			Rates:      rates,
			Discipline: disc,
			Horizon:    *horizon,
			Seed:       *seed,
		}
		if tracer != nil {
			cfg.OnDeparture = tracer.Observe
		}
		res, err = des.RunCtx(ctx, cfg)
		checkRun(err, "simulation", *timeout)
	}
	if tracer != nil {
		f, err := os.Create(*traceOut)
		check(err)
		check(tracer.WriteCSV(f))
		check(f.Close())
		fmt.Printf("wrote %d packet records to %s (%d dropped)\n",
			len(tracer.Records), *traceOut, tracer.Dropped)
	}

	model := mm1.MG1{CV2: 1}
	if *cv2 >= 0 {
		model = mm1.MG1{CV2: *cv2}
	}
	serial := alloc.SerialG{Model: model}.Congestion(rates)
	prop := alloc.ProportionalG{Model: model}.Congestion(rates)

	fmt.Printf("discipline %s, %d users, load %.3g, horizon %.3g (%d departures)\n",
		discLabel, len(rates), mm1.Sum(rates), *horizon, res.Departures)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "user\trate\tavg queue\t±95% CI\tavg delay\tthroughput\tserial ideal\tproportional") //lint:allow errdrop console tabwriter over stdout: best-effort like fmt.Printf
	for i, r := range rates {
		fmt.Fprintf(tw, "%d\t%.4g\t%.5g\t%.2g\t%.5g\t%.4g\t%.5g\t%.5g\n", //lint:allow errdrop console tabwriter over stdout: best-effort like fmt.Printf
			i, r, res.AvgQueue[i], res.QueueCI95[i], res.AvgDelay[i],
			res.Throughput[i], serial[i], prop[i])
	}
	tw.Flush() //lint:allow errdrop console tabwriter over stdout: best-effort like fmt.Printf
	fmt.Printf("total queue %.5g (station model predicts %.5g)\n",
		res.TotalAvgQueue, model.L(mm1.Sum(rates)))
}
