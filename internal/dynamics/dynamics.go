// Package dynamics implements the self-optimization processes of §4.2: the
// interval-elimination "generalized hill climbing" learners whose robust
// convergence Theorem 5 characterizes, and incremental gradient hill
// climbers with heterogeneous time constants (the setting that produces
// Stackelberg leaders under non-Fair-Share disciplines).
package dynamics

import (
	"context"
	"math"

	"greednet/internal/alloc"
	"greednet/internal/core"
)

// Box is a product of per-user candidate intervals — the set S^t of rate
// values each user still considers (§4.2.2 models learning as eliminating
// candidate values; we keep the interval hull of the survivors).
type Box struct {
	Lo, Hi []float64
}

// NewBox returns the initial candidate box [lo, hi]^n.
func NewBox(n int, lo, hi float64) Box {
	b := Box{Lo: make([]float64, n), Hi: make([]float64, n)}
	for i := 0; i < n; i++ {
		b.Lo[i] = lo
		b.Hi[i] = hi
	}
	return b
}

// Width returns the largest interval width in the box.
func (b Box) Width() float64 {
	w := 0.0
	for i := range b.Lo {
		if d := b.Hi[i] - b.Lo[i]; d > w {
			w = d
		}
	}
	return w
}

// Mid returns the box midpoint.
func (b Box) Mid() []float64 {
	m := make([]float64, len(b.Lo))
	for i := range m {
		m[i] = (b.Lo[i] + b.Hi[i]) / 2
	}
	return m
}

// Contains reports whether the rate vector lies in the box (within eps).
func (b Box) Contains(r []core.Rate, eps float64) bool {
	if len(r) != len(b.Lo) {
		return false
	}
	for i := range r {
		if r[i] < b.Lo[i]-eps || r[i] > b.Hi[i]+eps {
			return false
		}
	}
	return true
}

// clone deep-copies the box.
func (b Box) clone() Box {
	return Box{
		Lo: append([]float64(nil), b.Lo...),
		Hi: append([]float64(nil), b.Hi...),
	}
}

// EliminationOptions configures the generalized-hill-climbing round.
type EliminationOptions struct {
	// Grid is the number of candidate values sampled per user per round;
	// default 64.
	Grid int
	// Slack loosens the elimination threshold to keep the procedure sound
	// against discretization error; default 1e-9.
	Slack float64
	// MaxRounds bounds the iteration; default 200.
	MaxRounds int
	// Tol is the target box width; default 1e-6.
	Tol float64
}

func (o EliminationOptions) withDefaults() EliminationOptions {
	if o.Grid <= 0 {
		o.Grid = 64
	}
	if o.Slack <= 0 {
		o.Slack = 1e-9
	}
	if o.MaxRounds <= 0 {
		o.MaxRounds = 200
	}
	if o.Tol <= 0 {
		o.Tol = 1e-6
	}
	return o
}

// EliminationResult reports a generalized hill climbing run.
type EliminationResult struct {
	// Final is the terminal candidate box S^∞ (its midpoint approximates
	// the Nash equilibrium when Converged is true).
	Final Box
	// Widths traces the largest box width after each round.
	Widths []float64
	// Rounds is the number of elimination rounds performed.
	Rounds int
	// Converged is true when the box shrank to Tol: every combination of
	// reasonable learners ends at the same single point.
	Converged bool
	// Stalled is true when a full round eliminated (numerically) nothing
	// while the box was still wide — the discipline does not guarantee
	// robust convergence.
	Stalled bool
}

// elimCand is one sampled candidate rate with its payoff bracket over the
// box: umin is the payoff guaranteed against any surviving profile, umax
// the best case.
type elimCand struct{ s, umin, umax float64 }

// elimWorkspace holds the per-round scratch of interval elimination: the
// two corner rate vectors that bracket C_i over the box, the candidate
// list, and the allocation layer's workspace.  One elimWorkspace serves
// every round of a GeneralizedHillClimb run; a nil workspace means
// transient scratch.  Not safe for concurrent use.
type elimWorkspace struct {
	rLo, rHi []float64
	cands    []elimCand
	cdst     []float64
	aws      core.Workspace
}

// growVec resizes buf to n, reusing capacity when possible.
func growVec(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// roundEliminateWS performs one sound elimination round on the box: for
// each user it discards candidate rates whose best possible payoff against
// any profile in the box is worse than the guaranteed payoff of some other
// candidate.  Soundness relies on MAC monotonicity: C_i(·|s) over the box
// is bracketed by its values at the others-lo and others-hi corners, and
// U_i is decreasing in congestion.  The returned box is the interval hull
// of the surviving grid values (padded by one grid cell).  It runs on
// caller-owned scratch (nil means transient scratch); the corner probes go
// through alloc.CongestionOfInto, so disciplines with a fast path evaluate
// without per-probe allocation.
func roundEliminateWS(ws *elimWorkspace, a core.Allocation, us core.Profile, b Box, opt EliminationOptions) Box {
	opt = opt.withDefaults()
	n := len(b.Lo)
	if ws == nil {
		ws = &elimWorkspace{}
	}
	out := b.clone()
	// Corner rate vectors for bracketing C_i: others at box-lo / box-hi,
	// slot i overwritten per candidate and restored per user.
	rLo := growVec(ws.rLo, n)
	rHi := growVec(ws.rHi, n)
	ws.rLo, ws.rHi = rLo, rHi
	copy(rLo, b.Lo)
	copy(rHi, b.Hi)
	cdst := growVec(ws.cdst, n)
	ws.cdst = cdst
	for i := 0; i < n; i++ {
		lo, hi := b.Lo[i], b.Hi[i]
		if hi-lo <= 0 {
			continue
		}
		step := (hi - lo) / float64(opt.Grid)
		cands := ws.cands[:0]
		bestMin := math.Inf(-1)
		for k := 0; k <= opt.Grid; k++ {
			s := lo + float64(k)*step
			rLo[i] = s
			rHi[i] = s
			cLo := alloc.CongestionOfInto(a, &ws.aws, cdst, rLo, i) // least congestion over the box
			cHi := alloc.CongestionOfInto(a, &ws.aws, cdst, rHi, i) // greatest congestion over the box
			umin := us[i].Value(s, cHi)
			umax := us[i].Value(s, cLo)
			cands = append(cands, elimCand{s, umin, umax})
			if umin > bestMin {
				bestMin = umin
			}
		}
		ws.cands = cands
		rLo[i] = b.Lo[i]
		rHi[i] = b.Hi[i]
		newLo, newHi := math.Inf(1), math.Inf(-1)
		for _, c := range cands {
			if c.umax >= bestMin-opt.Slack {
				if c.s < newLo {
					newLo = c.s
				}
				if c.s > newHi {
					newHi = c.s
				}
			}
		}
		if math.IsInf(newLo, 1) {
			// Nothing survived (can only happen with −Inf everywhere);
			// keep the box unchanged.
			continue
		}
		// Pad by one grid cell: the true optimum may sit between samples.
		out.Lo[i] = math.Max(lo, newLo-step)
		out.Hi[i] = math.Min(hi, newHi+step)
	}
	return out
}

// GeneralizedHillClimb iterates elimination rounds until the box
// collapses, the round budget is exhausted, or no further progress is
// made.  Under Fair Share the box collapses around the unique Nash
// equilibrium (Theorem 5(1)); under the proportional allocation it
// typically stalls while still wide, because a candidate's guaranteed
// payoff is −Inf whenever the rest of the box can overload the switch.
//
// Note on completeness: the paper eliminates s when some ŝ beats it at
// every profile r in S^t; roundEliminateWS uses the sound relaxation
// "guaranteed payoff of ŝ exceeds best-case payoff of s" with independent
// corner bounds, which discards the correlation between the two payoffs.
// The relaxation shrinks the box like √w per round and therefore stalls at
// a small positive width (the relaxation floor) instead of a point.  The
// Nash equilibrium always remains inside the box; Contains can certify it.
func GeneralizedHillClimb(a core.Allocation, us core.Profile, start Box, opt EliminationOptions) EliminationResult {
	// The background context cannot fire, so the error path is dead.
	res, _ := GeneralizedHillClimbCtx(context.Background(), a, us, start, opt)
	return res
}

// GeneralizedHillClimbCtx is GeneralizedHillClimb under a context, polled
// once per elimination round (each round grids every user's interval, so
// the poll is amortized to nothing).  On cancellation it returns the box
// as eliminated so far — still a sound enclosure of the equilibrium —
// with the typed core.ErrCanceled / core.ErrDeadline; Converged and
// Stalled both stay false, so an abandoned run cannot be mistaken for a
// verdict about the discipline.
func GeneralizedHillClimbCtx(ctx context.Context, a core.Allocation, us core.Profile, start Box, opt EliminationOptions) (EliminationResult, error) {
	opt = opt.withDefaults()
	res := EliminationResult{Final: start.clone()}
	prev := res.Final.Width()
	ws := &elimWorkspace{} // one scratch set for every round
	for res.Rounds = 0; res.Rounds < opt.MaxRounds; res.Rounds++ {
		if err := core.CtxErr(ctx); err != nil {
			return res, err
		}
		res.Final = roundEliminateWS(ws, a, us, res.Final, opt)
		w := res.Final.Width()
		res.Widths = append(res.Widths, w)
		if w <= opt.Tol {
			res.Converged = true
			res.Rounds++
			return res, nil
		}
		// A full grid refinement halves the effective resolution each
		// round; require at least 1% relative progress to continue.
		if w > prev*0.999 {
			res.Stalled = true
			res.Rounds++
			return res, nil
		}
		prev = w
	}
	return res, nil
}

// HillClimbOptions configures the incremental gradient dynamics.
type HillClimbOptions struct {
	// Step is the per-update rate increment scale; default 0.01.
	Step float64
	// Probe is the finite-difference probe distance; default 1e-5.
	Probe float64
	// Period[i] makes user i update only every Period[i] rounds (a time
	// constant); nil means everyone updates every round.
	Period []int
	// Rounds is the number of rounds to simulate; default 2000.
	Rounds int
	// Lo/Hi clamp the rates; defaults (1e-6, 1−1e-6).
	Lo, Hi float64
}

func (o HillClimbOptions) withDefaults(n int) HillClimbOptions {
	if o.Step <= 0 {
		o.Step = 0.01
	}
	if o.Probe <= 0 {
		o.Probe = 1e-5
	}
	if o.Rounds <= 0 {
		o.Rounds = 2000
	}
	if o.Lo <= 0 {
		o.Lo = 1e-6
	}
	if o.Hi <= 0 || o.Hi >= 1 {
		o.Hi = 1 - 1e-6
	}
	if o.Period == nil {
		o.Period = make([]int, n)
		for i := range o.Period {
			o.Period[i] = 1
		}
	}
	return o
}

// HillClimbCtx runs naive simultaneous gradient hill climbing: each user,
// on its own period, probes its payoff derivative and takes a bounded step
// in the uphill direction.  It returns the trajectory of rate vectors (one
// entry per round, including the start).  It polls ctx once per round; on
// cancellation it returns the trajectory simulated so far (every entry is
// real dynamics, just truncated) with the typed core.ErrCanceled /
// core.ErrDeadline.
func HillClimbCtx(ctx context.Context, a core.Allocation, us core.Profile, r0 []core.Rate, opt HillClimbOptions) ([][]float64, error) {
	n := len(r0)
	opt = opt.withDefaults(n)
	r := append([]float64(nil), r0...)
	traj := make([][]float64, 0, opt.Rounds+1)
	traj = append(traj, append([]float64(nil), r...))
	// Round scratch, hoisted out of the loop: next accumulates the round's
	// updates, rr is the probe vector r|ⁱ(r_i±probe) that historically was
	// two fresh core.WithRate copies per probing user per round.  The
	// trajectory still appends fresh copies — it is the output.
	next := make([]float64, n)
	rr := make([]float64, n)
	cdst := make([]float64, n)
	var aws core.Workspace
	for round := 1; round <= opt.Rounds; round++ {
		if err := core.CtxErr(ctx); err != nil {
			return traj, err
		}
		copy(next, r)
		copy(rr, r)
		for i := 0; i < n; i++ {
			if round%opt.Period[i] != 0 {
				continue
			}
			rr[i] = r[i] + opt.Probe
			up := us[i].Value(rr[i], alloc.CongestionOfInto(a, &aws, cdst, rr, i))
			rr[i] = r[i] - opt.Probe
			dn := us[i].Value(rr[i], alloc.CongestionOfInto(a, &aws, cdst, rr, i))
			rr[i] = r[i]
			grad := (up - dn) / (2 * opt.Probe)
			step := opt.Step * grad
			// Bound the move to one Step per round for stability.
			if step > opt.Step {
				step = opt.Step
			} else if step < -opt.Step {
				step = -opt.Step
			}
			next[i] = core.Clamp(r[i]+step, opt.Lo, opt.Hi)
		}
		copy(r, next)
		traj = append(traj, append([]float64(nil), r...))
	}
	return traj, nil
}
