package game

import (
	"context"
	"errors"
	"math"

	"greednet/internal/alloc"
	"greednet/internal/core"
	"greednet/internal/mm1"
	"greednet/internal/utility"
)

// Heavy-traffic / fluid-limit mode: the N → ∞ equilibrium of a class
// game in the scaled units of "Heavy Traffic Approximation of Equilibria
// in Resource Sharing Games" (PAPERS.md, arXiv:1109.6166).  With class
// fractions α_j = Count_j/N fixed, per-user rates and congestions shrink
// as ρ_j = ŷ_j/N and C_j = ĉ_j/N, and the scaled pair (ŷ, ĉ) is N-free.
// Only linear utilities survive the scaling (N·U = A·ŷ − γ·ĉ), and both
// supported disciplines have the equilibrium in closed form.
//
// Fair Share is serial cost sharing: a class, as the smallest of the
// users left, stops where A = γ·g′(X), so its stage load is
// X_j = 1 − √(γ_j/A_j).  Classes fix bottom-up: over the fraction F and
// load σ already fixed, the class that reaches its X_j at the smallest
// rate ŷ = (X_j − σ)/(1−F) fixes next, and its stage, of load
// X = σ + (1−F)·ŷ, adds (g(X) − g(X_prev))/(1−F) to the scaled
// congestion of its own class and of every class fixed after it.
//
// Under the proportional allocation ĉ_j = ŷ_j/(1−s) with s = Σ α_j·ŷ_j:
// a zero-mass user's payoff is linear in ŷ, so classes push load until
// the best per-unit margin hits zero, s* = 1 − min_j γ_j/A_j, carried by
// the critical class(es) attaining the min — the N → ∞ limit of the
// finite FIFO equilibrium x = (1−s_o) − √(γ(1−s_o)).

// ErrFluidUtility is returned when a class's utility is not linear —
// the only family whose payoff is N-free under fluid scaling.
var ErrFluidUtility = errors.New("game: fluid solver requires linear utilities")

// ErrFluidAlloc is returned for allocations without a fluid limit here.
var ErrFluidAlloc = errors.New("game: fluid solver supports FairShare and Proportional")

// FluidResult reports the N → ∞ equilibrium in scaled units: Y[j] is
// class j's scaled per-user rate ŷ_j = lim N·ρ_j and Chat[j] its scaled
// congestion ĉ_j = lim N·C_j, both in canonical class order.  Divide by
// N to compare against a finite-N solve.
type FluidResult struct {
	Y, Chat []float64
	// Converged is false only when a free class gains without bound;
	// Iters is 1, the closed form's one pass.
	Converged bool
	Iters     int
	// MaxGain is the largest remaining scaled deviation gain
	// (per-user gain ≈ MaxGain/N).
	MaxGain float64
}

// fluidLinear extracts the linear utilities of a class game, or fails.
func fluidLinear(cg ClassGame) ([]utility.Linear, error) {
	out := make([]utility.Linear, cg.K())
	for j, c := range cg.Classes {
		lu, ok := c.U.(utility.Linear)
		if !ok {
			return nil, ErrFluidUtility
		}
		out[j] = lu
	}
	return out, nil
}

// SolveNashFluid solves the heavy-traffic equilibrium of cg's class
// structure in closed form: fractions α_j = Count_j/N are read from the
// game, so the answer is the same at every N for fixed fractions.  Of
// opt it reads only Free: a held class (Free[j] == false) keeps its
// scaled rate ŷ_j = N·Rate_j.  A free class with A ≤ 0 sends nothing; one
// with γ ≤ 0 < A gains without bound, so the result is unconverged with
// MaxGain +Inf.  The solve is one O(K²) pass, so ctx is never polled.
func SolveNashFluid(ctx context.Context, a core.Allocation, cg ClassGame, opt NashOptions) (FluidResult, error) {
	k := cg.K()
	if k == 0 {
		return FluidResult{}, ErrBadClass
	}
	solve := solveFluidFairShare
	switch a.(type) {
	case alloc.FairShare:
	case alloc.Proportional:
		solve = solveFluidProportional
	default:
		return FluidResult{}, ErrFluidAlloc
	}
	lus, err := fluidLinear(cg)
	if err != nil {
		return FluidResult{}, err
	}
	n := float64(cg.N())
	alpha := make([]float64, k)
	y := make([]float64, k)
	for j, c := range cg.Classes {
		alpha[j] = float64(c.Count) / n
		y[j] = n * c.Rate
	}
	free := opt.Free
	if free == nil {
		free = NewWorkspace().allFree(k)
	}
	return solve(lus, alpha, y, free), nil
}

// solveFluidFairShare builds the Fair Share fluid equilibrium bottom-up.
// Among the unfixed classes the smallest candidate rate fixes next,
// together with every class whose candidate ties it bit for bit: a held
// class's candidate is its own ŷ, a free class's the rate that brings
// the stage load to its X_j, (X_j − σ)/(1−F) clamped at 0.  Fixing a
// stage at ŷ leaves every other candidate at or above ŷ, so rates rise
// stage by stage.  Each free class sits at its own first-order
// condition and a deviator's serial cost is convex in its rate, so no
// deviation gains: MaxGain is 0.
func solveFluidFairShare(lus []utility.Linear, alpha, y []float64, free []bool) FluidResult {
	k := len(y)
	res := FluidResult{Y: y, Chat: make([]float64, k), Converged: true, Iters: 1}
	target := make([]float64, k)
	for j, lu := range lus {
		switch {
		case !free[j] || lu.A <= 0:
		case lu.Gamma <= 0:
			target[j] = 1
			res.Converged = false
			res.MaxGain = math.Inf(1)
		default:
			target[j] = 1 - math.Sqrt(lu.Gamma/lu.A)
		}
	}
	fixed := make([]bool, k)
	cand := make([]float64, k)
	f, sigma, gPrev, chat := 0.0, 0.0, 0.0, 0.0
	for left := k; left > 0; {
		rem := 1 - f
		next := -1
		for j := range y {
			if fixed[j] {
				continue
			}
			cand[j] = y[j]
			if free[j] {
				cand[j] = math.Max(0, (target[j]-sigma)/rem)
			}
			if next < 0 || cand[j] < cand[next] {
				next = j
			}
		}
		yv := cand[next]
		if g := mm1.G(sigma + rem*yv); math.IsInf(g, 1) {
			chat = g
		} else {
			chat += (g - gPrev) / rem
			gPrev = g
		}
		mass := 0.0
		for j := range y {
			if !fixed[j] && math.Float64bits(cand[j]) == math.Float64bits(yv) {
				fixed[j] = true
				left--
				y[j], res.Chat[j] = yv, chat
				mass += alpha[j]
			}
		}
		f += mass
		sigma += mass * yv
	}
	return res
}

// solveFluidProportional computes the closed-form proportional fluid
// equilibrium.  Held (non-free) classes contribute fixed load; free
// classes push until the best remaining per-unit margin A_j − γ_j/(1−s)
// reaches zero, so total load is s* = max(s_held, 1 − min_j γ_j/A_j)
// with the fill carried by the critical free class(es) attaining the
// min, split by mass when tied.  A free class with γ_j ≤ 0 (and A_j > 0)
// gains without bound — no finite equilibrium exists and the result is
// marked unconverged.
func solveFluidProportional(lus []utility.Linear, alpha, y []float64, free []bool) FluidResult {
	k := len(y)
	held := 0.0
	rmin := math.Inf(1)
	for j := 0; j < k; j++ {
		if !free[j] {
			held += alpha[j] * y[j]
			continue
		}
		y[j] = 0
		if lus[j].A > 0 {
			if r := lus[j].Gamma / lus[j].A; r < rmin {
				rmin = r
			}
		}
	}
	res := FluidResult{Y: y, Converged: true, Iters: 1}
	if rmin <= 0 {
		res.Converged = false
		res.MaxGain = math.Inf(1)
	}
	target := 1 - rmin
	s := held
	if res.Converged && target > held {
		// Critical = attains rmin exactly; the ratio is recomputed by the
		// same expression, so a bit-level match is the right tie test.
		crit := 0.0
		for j := 0; j < k; j++ {
			if free[j] && lus[j].A > 0 &&
				math.Float64bits(lus[j].Gamma/lus[j].A) == math.Float64bits(rmin) {
				crit += alpha[j]
			}
		}
		if crit > 0 {
			// Tied critical classes share the fill symmetrically per unit
			// of mass: ŷ_j = (s* − s_held)/Σ α_tied for each.
			fill := (target - held) / crit
			for j := 0; j < k; j++ {
				if free[j] && lus[j].A > 0 &&
					math.Float64bits(lus[j].Gamma/lus[j].A) == math.Float64bits(rmin) {
					y[j] = fill
					s += alpha[j] * fill
				}
			}
		}
	}
	chat := make([]float64, k)
	if s >= 1 {
		for j := range chat {
			chat[j] = math.Inf(1)
		}
	} else {
		for j := range chat {
			chat[j] = y[j] / (1 - s)
		}
	}
	res.Chat = chat
	if res.Converged {
		// Remaining gain: payoff is linear in ŷ with slope
		// m_j = A_j − γ_j/(1−s); at the closed form every free class has
		// m_j ≤ 0 and only critical classes (m_j = 0) hold load, so the
		// best deviation is dropping to zero, worth −m_j·ŷ_j.
		for j := 0; j < k; j++ {
			if !free[j] || y[j] <= 0 {
				continue
			}
			m := lus[j].A
			if s >= 1 {
				m = math.Inf(-1)
			} else {
				m -= lus[j].Gamma / (1 - s)
			}
			if g := -m * y[j]; g > res.MaxGain {
				res.MaxGain = g
			}
		}
	}
	return res
}
