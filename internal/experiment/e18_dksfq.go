package experiment

import (
	"io"
	"math"

	"greednet/internal/des"
	"greednet/internal/parallel"
	"greednet/internal/randdist"
)

// E18DKSFairQueueing runs the actual Fair Queueing algorithm of Demers,
// Keshav & Shenker (virtual-time finish tags, reference [3]) in the
// non-preemptive packet simulator and checks the three §5.2 claims against
// plain FIFO on the same load: fair treatment of equal flows, lower delay
// for flows using less than their share, and protection from ill-behaved
// sources.
func E18DKSFairQueueing() Experiment {
	e := Experiment{
		ID:     "E18",
		Source: "§5.2, reference [3] (Fair Queueing algorithm)",
		Title:  "DKS Fair Queueing in packet simulation: fairness, light-flow delay, protection",
	}
	e.Run = func(w io.Writer, opt Options) (Verdict, error) {
		if err := header(w, e); err != nil {
			return Verdict{}, err
		}
		horizon := 4e5
		if opt.Fast {
			horizon = 5e4
		}
		seed := opt.SeedOr(1818)
		match := true

		// The nine simulations are independent: run them concurrently,
		// then render (a), (b) and (c) from their slots in order.
		type simRun struct {
			rates []float64
			sched des.Scheduler
			seed  int64
		}
		mixed := []float64{0.05, 0.2, 0.6}
		attackers := []float64{0.3, 0.6, 0.9}
		sims := []simRun{{mixed, &des.FQSched{}, seed}, {mixed, &des.FCFSSched{}, seed}}
		for _, atk := range attackers {
			r := []float64{0.05, atk}
			sims = append(sims, simRun{r, &des.FQSched{}, seed + 1}, simRun{r, &des.FCFSSched{}, seed + 1})
		}
		sims = append(sims, simRun{[]float64{0.25, 0.25, 0.25}, &des.FQSched{}, seed + 2})
		ctx := opt.Context()
		res := make([]des.Result, len(sims))
		if err := parallel.MapOrderedCtx(ctx, 0, len(sims), func(k int) error {
			var err error
			res[k], err = des.RunSchedCtx(ctx, des.SchedConfig{
				Rates:   sims[k].rates,
				Service: randdist.Exponential{},
				Sched:   sims[k].sched,
				Horizon: horizon,
				Seed:    sims[k].seed,
			})
			return err
		}); err != nil {
			return Verdict{}, err
		}

		// (a) Mixed load: one light interactive flow, one medium, one heavy.
		fq, ff := res[0], res[1]
		tb := newTable(w)
		tb.row("flow", "rate", "FQ delay", "FIFO delay", "FQ queue", "FIFO queue")
		for i, r := range mixed {
			tb.row(i+1, r, fq.AvgDelay[i], ff.AvgDelay[i], fq.AvgQueue[i], ff.AvgQueue[i])
		}
		if err := tb.flush(); err != nil {
			return Verdict{}, err
		}
		lightBetter := fq.AvgDelay[0] < 0.7*ff.AvgDelay[0] &&
			fq.AvgDelay[1] < 0.85*ff.AvgDelay[1]
		heavyPays := fq.AvgQueue[2] > ff.AvgQueue[2]
		if !lightBetter || !heavyPays {
			match = false
		}

		// (b) Protection: the light flow's delay as an attacker ramps up.
		tb2 := newTable(w)
		tb2.row("attacker rate", "light-flow FQ delay", "light-flow FIFO delay")
		var fqDelays []float64
		for j, atk := range attackers {
			a, b := res[2+2*j], res[3+2*j]
			fqDelays = append(fqDelays, a.AvgDelay[0])
			tb2.row(atk, a.AvgDelay[0], b.AvgDelay[0])
		}
		if err := tb2.flush(); err != nil {
			return Verdict{}, err
		}
		// FQ keeps the victim's delay nearly flat across a 3× load ramp.
		if fqDelays[2] > 3.5*fqDelays[0] {
			match = false
		}

		// (c) Equal flows get equal service.
		eq := res[len(res)-1]
		spread := 0.0
		for i := 1; i < 3; i++ {
			if d := math.Abs(eq.AvgQueue[i] - eq.AvgQueue[0]); d > spread {
				spread = d
			}
		}
		tb3 := newTable(w)
		tb3.row("equal-flow queue spread", "mean queue", "relative")
		tb3.row(spread, eq.AvgQueue[0], spread/eq.AvgQueue[0])
		if err := tb3.flush(); err != nil {
			return Verdict{}, err
		}
		if spread > 0.2*eq.AvgQueue[0] {
			match = false
		}
		return verdictLine(w, match,
			"DKS Fair Queueing delivers §5.2's trio: equal shares, low light-flow delay, protection from flooding")
	}
	return e
}
