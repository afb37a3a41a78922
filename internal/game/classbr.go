package game

import (
	"math"

	"greednet/internal/alloc"
	"greednet/internal/core"
	"greednet/internal/mm1"
)

// fairShareBR evaluates one deviating player's Fair Share congestion as
// its rate varies with every other player held fixed — the access
// pattern of a best-response line search, which probes a grid plus a
// golden-section tail per call.  Players are classes with
// multiplicities; a per-user game is the case where every multiplicity
// is one.  Reset argsorts all K players once and lays out the other
// players' rate blocks, their positions, prefix sums and serial cost
// chain in one walk of that order.  The argsort is the workspace's,
// which repairs the previous Reset's order in O(K) when only a few rates
// moved (between the consecutive deviators of a Gauss–Seidel round the
// rate vector differs in one entry) and sorts from scratch in
// O(K log K) otherwise.  Each CongestionOf/OwnDerivs probe then finds
// the deviator's block by a search that resumes from the previous
// probe's block — O(1) while probes stay in one gap, O(log K) at worst —
// and finishes in O(1), instead of a full O(N log N) re-evaluation, with
// zero allocations once the buffers have reached K's size.
//
// Block arithmetic follows the summation-order contract of DESIGN.md §13:
// a class of multiplicity m at rate ρ starting at sorted position s
// contributes one load step x = fl(float64(n−s+1)·ρ + σ) and one cost
// step (g(x) − g_prev)/float64(n−s+1), and advances the prefix by
// σ ← fl(σ + float64(m)·ρ).  At m = 1 both fl(1·ρ) = ρ and the single
// step coincide exactly with the per-user chain of
// alloc.FairShare.CongestionInto, and ties break by player index exactly
// as its stable argsort orders them, so at unit multiplicities every
// probe is bit-identical to a full evaluation (the differential tests
// pin this); at m > 1 the within-class chain steps (which agree only to
// rounding in the expansion) are collapsed into the first member's step.
// The contract covers NaN-free rates: a NaN has no place in a stable
// order, so it is outside the evaluator's bit-identity guarantee.
type fairShareBR struct {
	n  int // total users Σ counts, including the deviator
	d  int // the deviating player's index
	nb int // number of nonempty blocks among the others

	brate []float64 // block rates, stably sorted ascending
	borig []int     // player index of each sorted block
	// bstart[j] is the 1-based others-position of sorted block j's first
	// member; bstart[nb] = n.
	bstart []int
	// sigma[j] = prefix sum through the first j blocks, advanced per the
	// contract; filled for every j even past the flood point (OwnDerivs
	// needs the prefix regardless).
	sigma []float64
	// gx[j] = g at block j's step and cacc[j] = cost accumulated through
	// block j, valid for blocks before the flood.
	gx   []float64
	cacc []float64
	// floodPos is the 1-based position of the first member of the first
	// flooded block; n+1 when no block floods (past every position the
	// deviator or the full chain can occupy).
	floodPos int
	// hint is the block index the last probe's search returned (0 after
	// Reset), where the next search starts.
	hint int
	// topFlood records that a probe since Reset flooded from the top gap,
	// where every block precedes the deviator.  There the deviator's load
	// step is fl(x + σ), nondecreasing in x, and every larger rate stays
	// in the top gap, so every larger rate floods too.
	topFlood bool

	ws core.Workspace
}

// Reset prepares the evaluator for the deviating player d of the
// per-player rate vector r with multiplicities counts.  The deviator is
// its class's first member in expansion order, so its own class enters
// the blocks with multiplicity counts[d]−1 (dropped entirely at zero).
// d = −1 keeps every player at full multiplicity (no deviator).
//
// All K players are argsorted together, deviator included, and the walk
// skips the deviator's emptied block: with no NaN rate, the stable
// (rate, index) order of all players minus one is exactly the stable
// order of the others, so every block and every float operation of the
// chain is the same as an argsort of the others alone would give.
//
//lint:hotpath
func (b *fairShareBR) Reset(r []core.Rate, counts []int, d int) {
	kk := len(r)
	n := 0
	for _, m := range counts {
		n += m
	}
	b.n, b.d = n, d
	if cap(b.brate) < kk {
		b.brate = make([]float64, kk)
		b.borig = make([]int, kk)
		b.gx = make([]float64, kk)
		b.cacc = make([]float64, kk)
	}
	if cap(b.bstart) < kk+1 {
		b.bstart = make([]int, kk+1)
		b.sigma = make([]float64, kk+1)
	}

	// One walk of the stable order lays out each nonempty block, its
	// first-member position, the prefix sum before it and, up to the
	// first flooded block, the cost chain.
	b.floodPos = n + 1
	nb, s := 0, 1
	sigma, prevG, c := 0.0, 0.0, 0.0
	for _, j := range b.ws.Ascending(r) {
		m := counts[j]
		if j == d {
			m--
		}
		if m == 0 {
			continue
		}
		rho := r[j]
		b.brate[nb], b.borig[nb], b.bstart[nb], b.sigma[nb] = rho, j, s, sigma
		if b.floodPos > n {
			xk := float64(n-s+1)*rho + sigma
			if gk := mm1.G(xk); math.IsInf(gk, 1) {
				b.floodPos = s
			} else {
				c += (gk - prevG) / float64(n-s+1)
				b.gx[nb], b.cacc[nb] = gk, c
				prevG = gk
			}
		}
		s += m
		sigma += float64(m) * rho
		nb++
	}
	b.bstart[nb], b.sigma[nb] = s, sigma
	b.nb, b.hint, b.topFlood = nb, 0, false
}

// precedes reports whether sorted block j comes wholly before the deviator
// in the stable ascending order when the deviator sends x.  All members of
// a block share a rate and a player index, so a block precedes or follows
// as a unit; ties break by player index — the deviator is its class's
// first member, so even its own residual block follows it.
func (b *fairShareBR) precedes(j int, x float64) bool {
	o := b.brate[j]
	if o < x {
		return true
	}
	if x < o {
		return false
	}
	return b.borig[j] < b.d
}

// blockPos returns the index of the first sorted block that does not
// precede the deviator sending x (nb when all do).  A line search's
// consecutive probes mostly land in the same or a nearby gap between
// blocks, so the search starts from the block the previous probe
// returned and gallops away from it — 1, 2, 4, … blocks — until it
// brackets the answer, then bisects the bracket: two comparisons when x
// stays in the last probe's gap, O(log distance) otherwise.  The answer
// is the unique index where precedes turns false, so it does not depend
// on the start.
func (b *fairShareBR) blockPos(x float64) int {
	h := b.hint
	lo, hi := 0, b.nb
	if h < b.nb && b.precedes(h, x) {
		// The answer lies above h.
		lo = h + 1
		for step := 1; h+step < b.nb; step *= 2 {
			if !b.precedes(h+step, x) {
				hi = h + step
				break
			}
			lo = h + step + 1
		}
	} else {
		// The answer is h or lies below it.
		hi = h
		for step := 1; h-step >= 0; step *= 2 {
			if b.precedes(h-step, x) {
				lo = h - step + 1
				break
			}
			hi = h - step
		}
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b.precedes(mid, x) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	b.hint = lo
	return lo
}

// CongestionOf returns the deviating member's Fair Share congestion when
// it sends x and every other player holds its Reset rate — O(log K) at
// worst, zero allocations, bit-identical to FairShare{}.CongestionOf(r|ᵈx, d)
// at unit multiplicities.  A flood from the top gap sets topFlood.
//
//lint:hotpath
func (b *fairShareBR) CongestionOf(x core.Rate) core.Congestion {
	j := b.blockPos(x)
	// Past floodPos a block before the deviator has already saturated the
	// chain; short of it, the deviator's own step may.
	if k := b.bstart[j]; k <= b.floodPos {
		xk := float64(b.n-k+1)*x + b.sigma[j]
		if gk := mm1.G(xk); !math.IsInf(gk, 1) {
			prevG, prevC := 0.0, 0.0
			if j >= 1 {
				prevG, prevC = b.gx[j-1], b.cacc[j-1]
			}
			return prevC + (gk-prevG)/float64(b.n-k+1)
		}
	}
	if j == b.nb {
		b.topFlood = true
	}
	return math.Inf(1)
}

// OwnDerivs returns (∂C/∂x, ∂²C/∂x²) for the deviating member at x —
// bit-identical to FairShare{}.OwnDerivs(r|ᵈx, d) at unit multiplicities.
//
//lint:hotpath
func (b *fairShareBR) OwnDerivs(x core.Rate) (float64, float64) {
	j := b.blockPos(x)
	k := b.bstart[j]
	xk := float64(b.n-k+1)*x + b.sigma[j]
	return mm1.GPrime(xk), float64(b.n-k+1) * mm1.GPrime2(xk)
}

// congestion writes each player's Fair Share congestion (its first
// member's, under the §13 contract) into dst, running the block chain
// once over all K players with full multiplicities — O(K log K),
// allocation-free given a prepared evaluator's scratch.  At unit
// multiplicities the chain is alloc.FairShare.CongestionInto's per-user
// chain and is bit-identical to it.
//
//lint:hotpath
func (b *fairShareBR) congestion(dst []core.Congestion, r []core.Rate, counts []int) {
	// Reuse Reset's block machinery with no deviator: d = −1 keeps every
	// player at full multiplicity, and Reset's chain pass has already
	// accumulated each block's cost share in cacc.
	b.Reset(r, counts, -1)
	for k := 0; k < b.nb; k++ {
		if b.bstart[k] >= b.floodPos {
			// This and all larger-rate blocks are flooded.
			for m := k; m < b.nb; m++ {
				dst[b.borig[m]] = math.Inf(1)
			}
			return
		}
		dst[b.borig[k]] = b.cacc[k]
	}
}

// propSum accumulates Σ multiplicity-weighted rates in player order with
// the deviating player's first member sending x — the class form of
// mm1.Sum over the expansion, exact at unit multiplicities where every
// fl(1·ρ) = ρ reproduces the per-user term sequence.
func propSum(r []core.Rate, counts []int, d int, x float64) float64 {
	s := 0.0
	for j := 0; j < len(r); j++ {
		if j == d {
			s += x
			if m := counts[j] - 1; m > 0 {
				s += float64(m) * r[j]
			}
			continue
		}
		s += float64(counts[j]) * r[j]
	}
	return s
}

// propCongestionOf is the deviating member's proportional (FIFO)
// congestion x/(1−s), mirroring alloc.Proportional.CongestionInto's
// saturation test.
func propCongestionOf(r []core.Rate, counts []int, d int, x float64) core.Congestion {
	s := propSum(r, counts, d, x)
	if s >= 1 {
		return math.Inf(1)
	}
	return x / (1 - s)
}

// propCongestion writes each player's proportional congestion into dst:
// s sums fl(count·rate) in player order, then C_j = r_j/(1−s).
func propCongestion(dst []core.Congestion, r []core.Rate, counts []int) {
	s := 0.0
	for j := range r {
		s += float64(counts[j]) * r[j]
	}
	if s >= 1 {
		for j := range dst {
			dst[j] = math.Inf(1)
		}
		return
	}
	dd := 1 - s
	for j, rj := range r {
		dst[j] = rj / dd
	}
}

// kernel names the class arithmetic a discipline has, chosen from its
// concrete type.  Disciplines without one (generic) are evaluated
// per user through the core.Allocation interface, and class games under
// them are solved by expanding them per user.
type kernel int

const (
	generic kernel = iota
	fairShare
	proportional
	square
)

// kernelOf maps an allocation to its class arithmetic.
func kernelOf(a core.Allocation) kernel {
	switch a.(type) {
	case alloc.FairShare:
		return fairShare
	case alloc.Proportional:
		return proportional
	case alloc.Square:
		return square
	}
	return generic
}

// brEval is the payoff of one deviating player as its rate varies: a
// concrete evaluator held in the workspace rather than a captured
// closure, so the //lint:hotpath allocfree contract holds without
// audited exceptions.  The kernels evaluate on the class arithmetic; the
// generic case probes the full allocation at r|ᵈx (per-user games only).
type brEval struct {
	k      kernel
	u      core.Utility
	r      []core.Rate
	counts []int
	d      int
	fs     *fairShareBR

	a    core.Allocation
	ai   core.AllocationInto // a's workspace fast path, when it has one
	aws  *core.Workspace
	rr   []core.Rate // r with the deviator's entry overwritten per probe
	cong []core.Congestion
}

// exhausted reports a Fair Share flood from the top gap since Reset;
// the other kernels never stop the grid early.
func (e *brEval) exhausted() bool { return e.k == fairShare && e.fs.topFlood }

//lint:hotpath
func (e *brEval) payoff(x float64) float64 {
	switch e.k {
	case fairShare:
		return e.u.Value(x, e.fs.CongestionOf(x))
	case proportional:
		return e.u.Value(x, propCongestionOf(e.r, e.counts, e.d, x))
	case square:
		return e.u.Value(x, x*x)
	}
	e.rr[e.d] = x
	if e.ai != nil {
		return e.u.Value(x, e.ai.CongestionInto(e.aws, e.cong, e.rr)[e.d])
	}
	return e.u.Value(x, e.a.CongestionOf(e.rr, e.d))
}
