// Package selfish closes the loop the paper's premises describe: selfish
// users who observe nothing but their own experienced service.  Rates are
// adjusted by stochastic hill climbing on utilities computed from
// congestion *measured* in the discrete-event simulator (not from the
// analytic allocation), exactly the "adjust the knob until the picture
// looks best" behaviour of §2.2.  If the paper's premise 2 is right, these
// blind optimizers must land on the Nash equilibrium of the induced
// allocation function — which the experiments verify for both FIFO and
// Fair Share switches.
package selfish

import (
	"context"
	"errors"
	"math"

	"greednet/internal/core"
	"greednet/internal/des"
	"greednet/internal/parallel"
	"greednet/internal/randdist"
)

// DisciplineFactory builds a fresh simulator discipline for each
// measurement epoch (disciplines are stateful).  The two probe epochs of
// a step run concurrently, so the factory may be called from two
// goroutines at once and must not share mutable state between the
// disciplines it returns.
type DisciplineFactory func() des.Discipline

// Options configures a closed-loop run.
type Options struct {
	// Epoch is the simulated time per payoff measurement; longer epochs
	// mean less noise.  Default 4000.
	Epoch float64
	// Rounds is the number of adjustment rounds (each round lets every
	// user probe once, round-robin).  Default 60.
	Rounds int
	// Delta0 is the initial probe distance; it decays as 1/√round.
	// Default 0.02.
	Delta0 float64
	// Step0 is the initial step size; it decays as 1/√round.  Default 0.04.
	Step0 float64
	// Lo and Hi clamp rates; defaults 0.005 and 0.95.
	Lo, Hi float64
	// Seed seeds all measurement randomness.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Epoch <= 0 {
		o.Epoch = 4000
	}
	if o.Rounds <= 0 {
		o.Rounds = 60
	}
	if o.Delta0 <= 0 {
		o.Delta0 = 0.02
	}
	if o.Step0 <= 0 {
		o.Step0 = 0.04
	}
	if o.Lo <= 0 {
		o.Lo = 0.005
	}
	if o.Hi <= 0 || o.Hi >= 1 {
		o.Hi = 0.95
	}
	return o
}

// Result reports a closed-loop run.
type Result struct {
	// R is the final rate vector.
	R []float64
	// Trajectory records the rates after each round (including the start).
	Trajectory [][]float64
	// Epochs counts simulator runs performed.
	Epochs int
}

// measure runs one epoch and returns user i's utility at the current
// rates, using the measured (not analytic) congestion.  Rates whose total
// reaches the server capacity yield −Inf (the user experiences meltdown).
// A canceled epoch is no measurement: it returns the typed
// core.ErrCanceled / core.ErrDeadline rather than a −Inf score.
func measure(ctx context.Context, factory DisciplineFactory, u core.Utility, r []core.Rate, i int, epoch float64, seed int64) (float64, error) {
	total := 0.0
	for _, v := range r {
		total += v
	}
	if total >= 0.99 {
		return math.Inf(-1), nil
	}
	res, err := des.RunCtx(ctx, des.Config{
		Rates:      r,
		Discipline: factory(),
		Horizon:    epoch,
		Seed:       seed,
	})
	var ce *core.CtxError
	if errors.As(err, &ce) {
		return 0, err
	}
	if err != nil {
		return math.Inf(-1), nil
	}
	return u.Value(r[i], res.AvgQueue[i]), nil
}

// Run executes the closed loop: in each round every user, in turn, probes
// its payoff at r_i ± δ with two measurement epochs and moves its rate by
// a bounded step in the better direction (a Kiefer–Wolfowitz scheme with
// decaying probe and step sizes).  It is RunCtx without cancellation.
func Run(factory DisciplineFactory, us core.Profile, r0 []core.Rate, opt Options) Result {
	// A background context never fires, and cancellation is RunCtx's
	// only error.
	res, _ := RunCtx(context.Background(), factory, us, r0, opt)
	return res
}

// RunCtx is Run under a context, polled once per round and inside every
// measurement epoch.  The two probe epochs of a step run concurrently on
// up to GOMAXPROCS goroutines; each builds its own simulator rng from the
// step's shared seed, so the result is bit-identical to measuring them
// one after the other.  A canceled run returns a zero Result with the
// typed core.ErrCanceled / core.ErrDeadline: a truncated trajectory has
// not settled anywhere.
func RunCtx(ctx context.Context, factory DisciplineFactory, us core.Profile, r0 []core.Rate, opt Options) (Result, error) {
	opt = opt.withDefaults()
	n := len(r0)
	r := append([]float64(nil), r0...)
	res := Result{}
	res.Trajectory = append(res.Trajectory, append([]float64(nil), r...))
	rng := randdist.NewRand(opt.Seed)
	for round := 1; round <= opt.Rounds; round++ {
		if err := core.CtxErr(ctx); err != nil {
			return Result{}, err
		}
		decay := 1 / math.Sqrt(float64(round))
		delta := opt.Delta0 * decay
		step := opt.Step0 * decay
		// Stretch measurement epochs as steps shrink so the noise-to-step
		// ratio keeps falling (the Kiefer–Wolfowitz requirement).
		epoch := opt.Epoch * (1 + float64(round)/8)
		for i := 0; i < n; i++ {
			up := core.Clamp(r[i]+delta, opt.Lo, opt.Hi)
			dn := core.Clamp(r[i]-delta, opt.Lo, opt.Hi)
			probes := [2][]core.Rate{core.WithRate(r, i, up), core.WithRate(r, i, dn)}
			// Common random numbers: measuring both probes under the same
			// seed cancels most of the shared queueing noise, which is
			// what makes small probe differences detectable.
			seed := rng.Int63()
			var v [2]float64
			if err := parallel.MapOrderedCtx(ctx, 0, len(probes), func(k int) error {
				var err error
				v[k], err = measure(ctx, factory, us[i], probes[k], i, epoch, seed)
				return err
			}); err != nil {
				return Result{}, err
			}
			vUp, vDn := v[0], v[1]
			res.Epochs += 2
			switch {
			case math.IsInf(vUp, -1) && math.IsInf(vDn, -1):
				// Meltdown in both directions: retreat.
				r[i] = core.Clamp(r[i]-step, opt.Lo, opt.Hi)
			case vUp > vDn:
				r[i] = core.Clamp(r[i]+step, opt.Lo, opt.Hi)
			case vDn > vUp:
				r[i] = core.Clamp(r[i]-step, opt.Lo, opt.Hi)
			}
		}
		res.Trajectory = append(res.Trajectory, append([]float64(nil), r...))
	}
	res.R = r
	return res, nil
}

// TailAverage returns the per-user average of the last k trajectory
// entries — a lower-variance estimate of the settled operating point.
func (r Result) TailAverage(k int) []float64 {
	if k <= 0 || k > len(r.Trajectory) {
		k = len(r.Trajectory)
	}
	n := len(r.Trajectory[0])
	out := make([]float64, n)
	for _, row := range r.Trajectory[len(r.Trajectory)-k:] {
		for i, v := range row {
			out[i] += v
		}
	}
	for i := range out {
		out[i] /= float64(k)
	}
	return out
}
