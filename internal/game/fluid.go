package game

import (
	"context"
	"errors"
	"math"
	"sort"

	"greednet/internal/alloc"
	"greednet/internal/core"
	"greednet/internal/mm1"
	"greednet/internal/utility"
)

// Heavy-traffic / fluid-limit mode: solve the N → ∞ equilibrium of a
// class game directly, following the scaling of "Heavy Traffic
// Approximation of Equilibria in Resource Sharing Games" (PAPERS.md,
// arXiv:1109.6166).  As N grows with class fractions α_j = Count_j/N
// fixed, per-user rates shrink as ρ_j = ŷ_j/N and per-user congestions
// as C_j = ĉ_j/N; the scaled pair (ŷ, ĉ) has an N-free fixed point.
//
// Under Fair Share the per-user serial chain collapses onto class
// blocks: with classes sorted by scaled rate ŷ and F_{j−1} the user
// fraction before block j, σ_{j−1} the load volume before it,
//
//	X_j = (1−F_{j−1})·ŷ_j + σ_{j−1}
//	ĉ_j = ĉ_{j−1} + (g(X_j) − g(X_{j−1})) / (1−F_{j−1})
//
// and a zero-mass deviator sending ŷ inserts by the same comparison with
// ĉ(ŷ) = ĉ_pre + (g((1−F_pre)·ŷ + σ_pre) − g_pre)/(1−F_pre).  A deviator
// strictly above every class has F_pre = 1: it carries its g-increment
// alone, whose scaled limit is ĉ = ĉ_last + ŷ·g'(σ) — linear growth in
// ŷ, the finite-N analogue of the top user paying the full marginal
// congestion (the pack below stays insulated from it, as in the paper).
//
// Under the proportional allocation the zero-mass limit is
// ĉ(ŷ) = ŷ/(1−s) with s = Σ α_j·ŷ_j: the deviator's own-rate effect on s
// vanishes, the payoff A·ŷ − γ·ŷ/(1−s) turns linear in ŷ, and
// best-response iteration degenerates to bang-bang.  The equilibrium is
// instead closed-form: classes push load until the best per-unit margin
// hits zero, so s* = 1 − min_j γ_j/A_j (clamped to [0, 1)), carried by
// the critical class(es) attaining the min — matching the finite-N
// FIFO equilibrium x = (1−s_o) − √(γ(1−s_o)) as N → ∞.
//
// Only linear utilities survive the scaling N-free (U = A·ρ − γ·C gives
// N·U = A·ŷ − γ·ĉ), so the fluid solver requires utility.Linear classes
// and the FairShare or Proportional allocation; Square's C = r²
// degenerates at rate N⁻² and has no nontrivial limit.

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
	Y, Chat   []float64
	Converged bool
	Iters     int
	// MaxGain is the largest remaining scaled deviation gain
	// (per-user gain ≈ MaxGain/N).
	MaxGain float64
}

// fluidChain holds the sorted block chain of one Fair Share fluid
// evaluation: prefix fractions, volumes, and the g/ĉ accumulations.
type fluidChain struct {
	ord      []int // canonical class index by ascending ŷ
	alpha, y []float64
	f, sigma []float64 // prefix fraction / volume before sorted block j
	gx, cacc []float64
	flood    int // first flooded sorted block; k when none
}

func buildFluidChain(alpha, y []float64) *fluidChain {
	k := len(y)
	c := &fluidChain{
		ord:   make([]int, k),
		alpha: alpha,
		y:     y,
		f:     make([]float64, k+1),
		sigma: make([]float64, k+1),
		gx:    make([]float64, k),
		cacc:  make([]float64, k),
		flood: k,
	}
	for j := range c.ord {
		c.ord[j] = j
	}
	sort.SliceStable(c.ord, func(a, b int) bool { return y[c.ord[a]] < y[c.ord[b]] })
	prevG, acc := 0.0, 0.0
	for j := 0; j < k; j++ {
		o := c.ord[j]
		c.f[j+1] = c.f[j] + alpha[o]
		c.sigma[j+1] = c.sigma[j] + alpha[o]*y[o]
		rem := 1 - c.f[j]
		x := rem*y[o] + c.sigma[j]
		g := mm1.G(x)
		if math.IsInf(g, 1) {
			c.flood = j
			break
		}
		acc += (g - prevG) / rem
		c.gx[j] = g
		c.cacc[j] = acc
		prevG = g
	}
	return c
}

// deviator returns the scaled congestion of a zero-mass member of class
// d sending ŷ against the chain.
func (c *fluidChain) deviator(d int, yv float64) float64 {
	pos := 0
	for pos < len(c.ord) {
		o := c.ord[pos]
		if c.y[o] < yv || (!(yv < c.y[o]) && o < d) {
			pos++
			continue
		}
		break
	}
	if pos > c.flood {
		return math.Inf(1)
	}
	rem := 1 - c.f[pos]
	if rem <= 0 {
		// Strictly above every class: at finite N the deviator shares every
		// chain increment (prevC) and then carries one solo step above the
		// previous top user — whose own x already includes the deviator
		// clamped to the top rate, so the step is
		// N·(g(σ+ŷ/N) − g(σ+ŷ_top/N)) → (ŷ − ŷ_top)·g'(σ): linear in ŷ and
		// continuous at ŷ = ŷ_top.  (Charging ŷ·g'(σ) instead would stack
		// an artificial congestion cliff on top of the chain, pinning the
		// top class at whatever rate it currently holds.  GPrime saturates
		// to +Inf when the chain already fills capacity.)
		prevC := 0.0
		if pos >= 1 {
			prevC = c.cacc[pos-1]
		}
		top := c.y[c.ord[len(c.ord)-1]]
		return prevC + (yv-top)*mm1.GPrime(c.sigma[pos])
	}
	g := mm1.G(rem*yv + c.sigma[pos])
	if math.IsInf(g, 1) {
		return math.Inf(1)
	}
	prevG, prevC := 0.0, 0.0
	if pos >= 1 {
		prevG, prevC = c.gx[pos-1], c.cacc[pos-1]
	}
	return prevC + (g-prevG)/rem
}

// classChat writes each class's scaled congestion at the chain point.
func (c *fluidChain) classChat(dst []float64) {
	for j := range c.ord {
		if j >= c.flood {
			dst[c.ord[j]] = math.Inf(1)
			continue
		}
		dst[c.ord[j]] = c.cacc[j]
	}
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
// structure: fractions α_j = Count_j/N and scaled starts ŷ_j = N·Rate_j
// are read from the game, and best-response iteration — the same round
// loop as SolveNash — runs entirely in scaled units, so the answer is
// independent of N for fixed fractions and volumes.  Options keep their
// SolveNashClass meanings with Tol and BR bounds interpreted in ŷ-space
// (BR.Hi defaults to twice the current top scaled rate rather than the
// per-user 1−1e-9).
func SolveNashFluid(ctx context.Context, a core.Allocation, cg ClassGame, opt NashOptions) (FluidResult, error) {
	k := cg.K()
	if k == 0 {
		return FluidResult{}, ErrBadClass
	}
	var prop bool
	switch a.(type) {
	case alloc.FairShare:
	case alloc.Proportional:
		prop = true
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
	ws := NewWorkspace()
	if prop {
		free := opt.Free
		if free == nil {
			free = ws.allFree(k)
		}
		return solveFluidProportional(lus, alpha, y, free), nil
	}
	res, err := ws.solve(ctx, &fluidGame{lus: lus, alpha: alpha, br: opt.BR}, y, opt, y, make([]float64, k))
	return FluidResult{Y: res.R, Chat: res.C, Converged: res.Converged, Iters: res.Iters, MaxGain: res.MaxGain}, err
}

// fluidGame is the Fair Share fluid limit as a responder: players are
// classes at scaled rates ŷ with population fractions α, each a
// zero-mass deviator against the block chain, paid A·ŷ − γ·ĉ.
type fluidGame struct {
	lus   []utility.Linear
	alpha []float64
	br    BROptions
}

func (g *fluidGame) bestResponse(d int, y []float64) (float64, float64) {
	br := g.br
	if br.Lo <= 0 {
		br.Lo = 1e-9
	}
	if br.Hi <= 0 {
		top := 1.0
		for _, v := range y {
			if v > top {
				top = v
			}
		}
		br.Hi = 2 * top
	}
	if br.GridPoints <= 0 {
		br.GridPoints = 64
	}
	if br.Tol <= 0 {
		br.Tol = 1e-10
	}
	chain := buildFluidChain(g.alpha, y)
	dev := func(x float64) float64 { return g.value(d, x, chain.deviator(d, x)) }
	return maximize(objectiveFunc(dev), br.Lo, br.Hi, br.GridPoints, br.Tol)
}

func (g *fluidGame) value(d int, yv, chat float64) float64 {
	return g.lus[d].A*yv - g.lus[d].Gamma*chat
}

func (g *fluidGame) congestion(dst, y []float64) {
	buildFluidChain(g.alpha, y).classChat(dst)
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
