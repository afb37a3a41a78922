// Package game implements the game-theoretic machinery of the paper:
// best-response computation, Nash equilibrium solvers, Pareto first-
// derivative conditions and dominance searches, envy and unilateral
// envy-freeness, the out-of-equilibrium protection bound, Stackelberg
// (leader/follower) equilibria, and the Newton relaxation matrix of
// §4.2.3 with its nilpotency/stability analysis.
package game

import (
	"math"

	"greednet/internal/alloc"
	"greednet/internal/core"
)

// BROptions controls the one-dimensional best-response search.
type BROptions struct {
	// Lo and Hi bound the searched rate interval; defaults (1e-9, 1−1e-9).
	Lo, Hi float64
	// GridPoints seeds the search with an even grid before golden-section
	// refinement, making it robust to the −Inf plateaus allocations create
	// outside their finite region.  Default 64.
	GridPoints int
	// Tol is the argument tolerance of the refinement.  Default 1e-10.
	Tol float64
}

func (o BROptions) withDefaults() BROptions {
	if o.Lo <= 0 {
		o.Lo = 1e-9
	}
	if o.Hi <= 0 || o.Hi >= 1 {
		o.Hi = 1 - 1e-9
	}
	if o.GridPoints <= 0 {
		o.GridPoints = 64
	}
	if o.Tol <= 0 {
		o.Tol = 1e-10
	}
	return o
}

// BestResponse maximizes user i's utility over its own rate, holding the
// other rates in r fixed.  It returns the maximizing rate and the utility
// achieved.  The search is grid-seeded golden section over [Lo, Hi].
func BestResponse(a core.Allocation, u core.Utility, r []core.Rate, i int, opt BROptions) (x, val float64) {
	return BestResponseWS(nil, a, u, r, i, opt)
}

// BestResponseWS is BestResponse with solver-owned scratch (nil ws means
// allocate transient scratch).  Results are bit-identical to BestResponse
// for every allocation:
//
//   - Fair Share, Proportional and Square search on their class
//     arithmetic with every multiplicity one — a per-user game is the
//     class game whose classes each have one member.  Under Fair Share
//     the grid, which stops at its first probe that floods from the top
//     gap, and the golden-section probes go through the incremental
//     deviator evaluator (one Reset — O(N) when the sorted order moved
//     in one place since the workspace's last Reset, O(N log N) otherwise
//     — then O(1) to O(log N) per probe), whose values equal the full
//     evaluation bit for bit.
//   - Disciplines providing core.AllocationInto evaluate into the
//     workspace's congestion buffer with the same arithmetic as their
//     allocating path.
//   - Everything else runs the historical CongestionOf probe, with only
//     the r|ⁱx copy hoisted into the workspace.
//
//lint:hotpath
func BestResponseWS(ws *Workspace, a core.Allocation, u core.Utility, r []core.Rate, i int, opt BROptions) (x, val float64) {
	if ws == nil {
		ws = NewWorkspace() //lint:allow allocfree nil-workspace convenience fallback; hot callers (SolveNashWS, sweeps) pass a real workspace
	}
	return ws.bestResponse(kernelOf(a), a, u, r, ws.units(len(r)), i, opt)
}

// bestResponse maximizes player d's payoff over its own rate, the other
// players holding r, on the discipline's class arithmetic (kernel k) or,
// for a per-user game under a generic discipline, through a.
//
// When counts[d] > 1 the single-deviator optimum is applied to every
// member of the class at once, so an unrestricted search diverges: the
// moment one class vacates capacity, a lone deviator's best response can
// rationally jump far above the pack, and the whole class following en
// masse floods the network.  The search interval is therefore clamped to
// twice the current top rate (the finite-N analogue of the fluid
// solver's default ŷ bound) and to class-aggregate feasibility — the
// whole class moving to x must keep total load below capacity.  Neither
// clamp binds at a best-response fixed point (a fixed point has
// br = r_d ≤ top < 2·top and total load < 1), and a player with
// multiplicity one keeps the caller's exact bounds, which is what makes
// the per-user solve the K = N class solve.
//
//lint:hotpath
func (ws *Workspace) bestResponse(k kernel, a core.Allocation, u core.Utility, r []core.Rate, counts []int, d int, opt BROptions) (x, val float64) {
	opt = opt.withDefaults()
	if counts[d] > 1 {
		top, others := 0.0, 0.0
		for j := range r {
			if float64(r[j]) > top {
				top = float64(r[j])
			}
			if j != d {
				others += float64(counts[j]) * float64(r[j])
			}
		}
		hi := opt.Hi
		if c := 2 * top; c < hi {
			hi = c
		}
		if c := (1 - others) / float64(counts[d]); c < hi {
			hi = c
		}
		if floor := 2 * opt.Lo; hi < floor {
			hi = floor
		}
		opt.Hi = hi
		if k == proportional {
			return ws.propSymBR(u, r, counts, d, opt)
		}
	}
	e := &ws.eval
	e.k, e.u, e.r, e.counts, e.d = k, u, r, counts, d
	switch k {
	case fairShare:
		ws.fs.Reset(r, counts, d)
		e.fs = &ws.fs
	case generic:
		e.a, e.aws = a, &ws.aws
		e.ai, _ = a.(core.AllocationInto)
		e.rr = ws.rates(len(r))
		copy(e.rr, r)
		e.cong = ws.congestion(len(r))
	}
	return maximize(e, opt.Lo, opt.Hi, opt.GridPoints, opt.Tol)
}

// propSymBR returns the within-class self-consistent best response
// under the proportional allocation: the symmetric rate x at which one
// member's single-deviator optimum, with its classmates also at x,
// equals x.  The proportional discipline has no own-rate insulation — a
// member's congestion reacts to the class total, not its own rate — so
// the plain single-deviator update amplifies through the multiplicity
// (aggregate slope ≈ −γ'·m) and best-response iteration cycles for any
// fixed damping.  Solving the symmetric fixed point per update removes
// the amplification while keeping exactly the same equilibria: at the
// fixed point a lone deviation from the class profile is already
// optimal, which is the Nash condition, and players of multiplicity one
// never reach this path so the per-user arithmetic is untouched.
//
// ψ(x) = BR(x) − x is monotone decreasing (more classmate load lowers
// the member optimum), so bisection over the clamped interval is safe;
// ψ < 0 everywhere collapses to Lo (the class exits) and ψ > 0
// everywhere to Hi (the feasibility clamp binds).
//
//lint:hotpath
func (ws *Workspace) propSymBR(u core.Utility, r []core.Rate, counts []int, d int, opt BROptions) (x, val float64) {
	e := &ws.eval
	e.k, e.u, e.r, e.counts, e.d = proportional, u, r, counts, d
	old := r[d]
	lo, hi := opt.Lo, opt.Hi
	for it := 0; it < 64 && hi-lo > opt.Tol; it++ {
		mid := lo + (hi-lo)/2
		r[d] = mid
		br, _ := maximize(e, opt.Lo, opt.Hi, opt.GridPoints, opt.Tol)
		if br > mid {
			lo = mid
		} else {
			hi = mid
		}
	}
	x = lo + (hi-lo)/2
	r[d] = x
	_, val = maximize(e, opt.Lo, opt.Hi, opt.GridPoints, opt.Tol)
	r[d] = old
	return x, val
}

// objective is a one-dimensional payoff the best-response search
// climbs.
type objective interface {
	payoff(x float64) float64
	// exhausted reports whether a probe since the objective was prepared
	// has shown that the payoff is −Inf at every rate from its own up.
	exhausted() bool
}

// objectiveFunc adapts a plain function to objective for callers off the
// hot path (Stackelberg's leader search, the fluid deviator).
type objectiveFunc func(float64) float64

func (f objectiveFunc) payoff(x float64) float64 { return f(x) }

func (objectiveFunc) exhausted() bool { return false }

// maximize is the one best-response line search: an even grid of n+1
// probes over [a, b] seeds a golden-section refinement of the best grid
// cell, which keeps the search robust to the −Inf plateaus allocations
// produce outside their finite region.  When the refinement ends on −Inf
// although the grid found a finite payoff — the feasible interval is
// narrower than a grid cell, both golden probes fell past it, and the
// bracket walked to the cell's infeasible right edge — the grid's best
// point is returned instead.
//
// An ascending grid stops at the first −Inf probe after which f is
// exhausted: every later grid point pays −Inf and cannot beat the
// incumbent under the strict comparison, so the result is the full
// grid's.  Under Fair Share that is the first probe that floods from the
// top gap (fairShareBR.topFlood), and the later points pay −Inf by
// core.Utility's rule that c = +Inf gives −Inf.
//
//lint:hotpath
func maximize(f objective, a, b float64, n int, tol float64) (float64, float64) {
	h := (b - a) / float64(n)
	bestI, bestF := 0, math.Inf(-1)
	for i := 0; i <= n; i++ {
		v := f.payoff(a + float64(i)*h)
		if v > bestF {
			bestF, bestI = v, i
		} else if math.IsInf(v, -1) && h > 0 && f.exhausted() {
			break
		}
	}
	lo := a + float64(bestI-1)*h
	if bestI == 0 {
		lo = a
	}
	hi := a + float64(bestI+1)*h
	if bestI == n {
		hi = b
	}
	const invPhi = 0.6180339887498949
	c := hi - invPhi*(hi-lo)
	d := lo + invPhi*(hi-lo)
	fc, fd := f.payoff(c), f.payoff(d)
	for hi-lo > tol {
		if fc > fd {
			hi, d, fd = d, c, fc
			c = hi - invPhi*(hi-lo)
			fc = f.payoff(c)
		} else {
			lo, c, fc = c, d, fd
			d = lo + invPhi*(hi-lo)
			fd = f.payoff(d)
		}
	}
	x := lo + (hi-lo)/2
	fx := f.payoff(x)
	if math.IsInf(fx, -1) && !math.IsInf(bestF, -1) {
		return a + float64(bestI)*h, bestF
	}
	return x, fx
}

// BestResponseNewton computes user i's best response by running Newton's
// method on the first-derivative condition E_i(x) = M_i + ∂C_i/∂r_i = 0 in
// the user's own coordinate, falling back to the grid search when Newton
// fails to bracket an interior optimum (corner solutions, non-concave
// payoffs, or iterates leaving the finite region).  For smooth concave
// payoffs it is several times cheaper than the grid+golden search — the
// DESIGN.md §6 solver ablation.
func BestResponseNewton(a core.Allocation, us core.Profile, r []core.Rate, i int, opt BROptions) (x, val float64) {
	return BestResponseNewtonWS(nil, a, us, r, i, opt)
}

// BestResponseNewtonWS is BestResponseNewton with solver-owned scratch;
// see BestResponseWS for the fast-path structure and the bit-identity
// argument.
func BestResponseNewtonWS(ws *Workspace, a core.Allocation, us core.Profile, r []core.Rate, i int, opt BROptions) (x, val float64) {
	opt = opt.withDefaults()
	if ws == nil {
		ws = NewWorkspace()
	}
	var fdc, payoffAt func(x float64) float64
	if kernelOf(a) == fairShare {
		br := &ws.fs
		br.Reset(r, ws.units(len(r)), i)
		fdc = func(x float64) float64 {
			c := br.CongestionOf(x)
			if math.IsInf(c, 1) {
				return math.Inf(-1) // way past the optimum
			}
			d1, _ := br.OwnDerivs(x)
			return core.MarginalRate(us[i], x, c) + d1
		}
		payoffAt = func(x float64) float64 {
			return us[i].Value(x, br.CongestionOf(x))
		}
	} else {
		rr := ws.rates(len(r))
		copy(rr, r)
		fdc = func(x float64) float64 {
			rr[i] = x
			c := alloc.CongestionOfInto(a, &ws.aws, ws.congestion(len(rr)), rr, i)
			if math.IsInf(c, 1) {
				return math.Inf(-1) // way past the optimum
			}
			d1, _ := alloc.OwnDerivsInto(a, &ws.aws, rr, i)
			return core.MarginalRate(us[i], x, c) + d1
		}
		payoffAt = func(x float64) float64 {
			rr[i] = x
			return us[i].Value(x, alloc.CongestionOfInto(a, &ws.aws, ws.congestion(len(rr)), rr, i))
		}
	}
	// Newton with numeric derivative, seeded at the current rate.
	x = core.Clamp(r[i], opt.Lo, opt.Hi)
	ok := false
	for iter := 0; iter < 40; iter++ {
		f := fdc(x)
		if math.IsInf(f, 0) || math.IsNaN(f) {
			break
		}
		if math.Abs(f) < 1e-11 {
			ok = true
			break
		}
		h := 1e-6 * (math.Abs(x) + 1e-3)
		fp, fm := fdc(x+h), fdc(x-h)
		if math.IsInf(fp, 0) || math.IsInf(fm, 0) {
			break
		}
		d := (fp - fm) / (2 * h)
		if d == 0 || math.IsNaN(d) { //lint:allow floateq division guard: any nonzero derivative is usable
			break
		}
		nx := core.Clamp(x-f/d, opt.Lo, opt.Hi)
		if math.Abs(nx-x) < 1e-13 {
			x = nx
			ok = true
			break
		}
		x = nx
	}
	if ok {
		val = payoffAt(x)
		// Guard against converging to a stationary point that is not the
		// maximum: accept only if a coarse grid finds nothing better.
		gx, gval := BestResponseWS(ws, a, us[i], r, i, BROptions{GridPoints: 16, Tol: 1e-6})
		if gval <= val+1e-9 {
			return x, val
		}
		return gx, gval
	}
	return BestResponseWS(ws, a, us[i], r, i, opt)
}

// DeviationGain returns how much user i could gain by unilaterally
// deviating from r: max_x U_i(x, C_i(r|x)) − U_i(r_i, C_i(r)).  A point is
// an (ε-)Nash equilibrium iff every user's gain is ≤ ε.
func DeviationGain(a core.Allocation, u core.Utility, r []core.Rate, i int, opt BROptions) float64 {
	ws := NewWorkspace()
	_, best := BestResponseWS(ws, a, u, r, i, opt)
	return best - u.Value(r[i], alloc.CongestionOfInto(a, &ws.aws, ws.congestion(len(r)), r, i))
}

// NashResidual returns the vector E with E_i = M_i(r_i, C_i(r)) + ∂C_i/∂r_i,
// the paper's measure of distance from the Nash first-derivative condition.
// All components vanish at an interior Nash equilibrium.
func NashResidual(a core.Allocation, us core.Profile, r []core.Rate) []float64 {
	c := a.Congestion(r)
	out := make([]float64, len(r))
	for i := range r {
		d1, _ := alloc.OwnDerivs(a, r, i)
		out[i] = core.MarginalRate(us[i], r[i], c[i]) + d1
	}
	return out
}
