package game

import (
	"math"

	"greednet/internal/alloc"
	"greednet/internal/core"
	"greednet/internal/mm1"
)

// fairShareBR evaluates one deviating player's Fair Share congestion as
// its rate varies with every other player held fixed — the access
// pattern of a best-response line search, which probes ~64 grid points
// plus a golden-section tail per call.  Players are classes with
// multiplicities; a per-user game is the case where every multiplicity
// is one.  Reset orders the K rate blocks, then precomputes the prefix
// sums and the serial cost chain in O(K).  The ordering goes through the
// workspace argsort, which repairs the previous Reset's order in O(K)
// when only a few blocks moved (between the consecutive deviators of a
// Gauss–Seidel round the gathered rates differ in one entry) and sorts
// from scratch in O(K log K) otherwise.  Each CongestionOf/OwnDerivs
// probe then finds the deviator's insertion point by binary search and
// finishes in O(1) — O(log K) per probe instead of a full O(N log N)
// re-evaluation, with zero allocations once the buffers have reached K's
// size.
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
type fairShareBR struct {
	n  int // total users Σ counts, including the deviator
	d  int // the deviating player's index
	nb int // number of nonempty blocks among the others

	keys  []float64 // scratch: block rates in player order
	owner []int     // scratch: player index of each gathered block
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

	ws core.Workspace
}

// Reset prepares the evaluator for the deviating player d of the
// per-player rate vector r with multiplicities counts.  The deviator is
// its class's first member in expansion order, so its own class enters
// the blocks with multiplicity counts[d]−1 (dropped entirely at zero).
// d = −1 keeps every player at full multiplicity (no deviator).
//
//lint:hotpath
func (b *fairShareBR) Reset(r []core.Rate, counts []int, d int) {
	kk := len(r)
	n := 0
	for _, m := range counts {
		n += m
	}
	b.n, b.d = n, d
	if cap(b.keys) < kk {
		b.keys = make([]float64, kk)
		b.owner = make([]int, kk)
		b.brate = make([]float64, kk)
		b.borig = make([]int, kk)
		b.gx = make([]float64, kk)
		b.cacc = make([]float64, kk)
	}
	if cap(b.bstart) < kk+1 {
		b.bstart = make([]int, kk+1)
		b.sigma = make([]float64, kk+1)
	}
	// Gather the nonempty other-blocks in player order: every player,
	// with the deviating player's multiplicity reduced by one.
	nb := 0
	b.keys = b.keys[:kk]
	b.owner = b.owner[:kk]
	for j := 0; j < kk; j++ {
		m := counts[j]
		if j == d {
			m--
		}
		if m == 0 {
			continue
		}
		b.keys[nb] = r[j]
		b.owner[nb] = j
		nb++
	}
	b.nb = nb
	b.keys = b.keys[:nb]
	b.brate = b.brate[:nb]
	b.borig = b.borig[:nb]
	b.gx = b.gx[:nb]
	b.cacc = b.cacc[:nb]
	b.bstart = b.bstart[:nb+1]
	b.sigma = b.sigma[:nb+1]

	// Stable argsort of the blocks by rate: ties keep player order,
	// exactly as a stable per-user sort orders the expansion.  Walking
	// the permutation lays out the sorted blocks, their first-member
	// positions and the prefix sums in one pass.
	perm := b.ws.Ascending(b.keys)
	b.bstart[0] = 1
	b.sigma[0] = 0
	for k, p := range perm {
		j := b.owner[p]
		m := counts[j]
		if j == d {
			m--
		}
		b.brate[k] = b.keys[p]
		b.borig[k] = j
		b.bstart[k+1] = b.bstart[k] + m
		b.sigma[k+1] = b.sigma[k] + float64(m)*b.brate[k]
	}

	b.floodPos = n + 1
	prevG := 0.0
	c := 0.0
	for k := 0; k < nb; k++ {
		s := b.bstart[k]
		xk := float64(n-s+1)*b.brate[k] + b.sigma[k]
		gk := mm1.G(xk)
		if math.IsInf(gk, 1) {
			b.floodPos = s
			break
		}
		c += (gk - prevG) / float64(n-s+1)
		b.gx[k] = gk
		b.cacc[k] = c
		prevG = gk
	}
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
// precede the deviator sending x (nb when all do), by binary search.
func (b *fairShareBR) blockPos(x float64) int {
	lo, hi := 0, b.nb
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b.precedes(mid, x) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// CongestionOf returns the deviating member's Fair Share congestion when
// it sends x and every other player holds its Reset rate — O(log K),
// zero allocations, bit-identical to FairShare{}.CongestionOf(r|ᵈx, d)
// at unit multiplicities.
//
//lint:hotpath
func (b *fairShareBR) CongestionOf(x core.Rate) core.Congestion {
	j := b.blockPos(x)
	k := b.bstart[j]
	if k > b.floodPos {
		// A block before the deviator already saturated the chain.
		return math.Inf(1)
	}
	xk := float64(b.n-k+1)*x + b.sigma[j]
	gk := mm1.G(xk)
	if math.IsInf(gk, 1) {
		return math.Inf(1)
	}
	prevG, prevC := 0.0, 0.0
	if j >= 1 {
		prevG, prevC = b.gx[j-1], b.cacc[j-1]
	}
	return prevC + (gk-prevG)/float64(b.n-k+1)
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
