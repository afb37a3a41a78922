package game

import (
	"context"
	"errors"
	"math"

	"greednet/internal/alloc"
	"greednet/internal/core"
	"greednet/internal/numeric"
	"greednet/internal/parallel"
)

// UpdateScheme selects how best responses are applied during Nash
// fixed-point iteration.
type UpdateScheme int

const (
	// GaussSeidel updates users one at a time, each seeing the others'
	// freshest rates.  This models asynchronous self-optimization and is
	// the default.
	GaussSeidel UpdateScheme = iota
	// Jacobi updates all users simultaneously from the previous round's
	// rates — the synchronous dynamics whose stability §4.2.3 analyzes.
	Jacobi
)

// NashOptions configures the Nash solvers — per-user (SolveNash) and
// class (SolveNashClass) alike; the closed-form SolveNashFluid reads only
// Free.
type NashOptions struct {
	// Scheme is the update order; default GaussSeidel.
	Scheme UpdateScheme
	// MaxIter bounds best-response rounds; default 500.
	MaxIter int
	// Tol is the ∞-norm rate-change convergence threshold; default 1e-7
	// (the inner golden-section searches carry ≈1e-9 argmax noise, so
	// tolerances below ≈1e-8 can keep the loop jittering forever).
	Tol float64
	// Damping in (0, 1] blends the best response with the previous rate:
	// r ← (1−d)·r + d·BR.  Default 1 (undamped).
	Damping float64
	// BR configures each inner best-response search.
	BR BROptions
	// Free, when non-nil, marks which players self-optimize — one entry
	// per user, or per class in a class solve; players with
	// Free[i] == false hold their initial rate (the paper's non-optimizing
	// users / subsystems).
	Free []bool
}

func (o NashOptions) withDefaults() NashOptions {
	if o.MaxIter <= 0 {
		o.MaxIter = 500
	}
	if o.Tol <= 0 {
		o.Tol = 1e-7
	}
	if o.Damping <= 0 || o.Damping > 1 {
		o.Damping = 1
	}
	return o
}

// NashResult reports the outcome of a Nash solve.
type NashResult struct {
	// R and C are the final rates and congestions: per user, or per class
	// in canonical class order for a class solve (ClassGame.ExpandVec
	// expands them to per-user vectors).
	R, C []float64
	// Converged is true when the rate change fell below Tol.
	Converged bool
	// Iters is the number of best-response rounds performed.
	Iters int
	// MaxGain is the largest remaining unilateral deviation gain at R, a
	// direct certificate of (ε-)Nash-ness (audited at each class's first
	// member in a class solve).
	MaxGain float64
}

// ErrNoProfile is returned when the profile and start vector disagree.
var ErrNoProfile = errors.New("game: profile and rate vector lengths differ")

// SolveNash runs best-response iteration from r0 under allocation a and
// utility profile us.  It converges for the Fair Share allocation from any
// start (Theorems 4–5); for other disciplines it may cycle or diverge, in
// which case Converged is false.
func SolveNash(a core.Allocation, us core.Profile, r0 []core.Rate, opt NashOptions) (NashResult, error) {
	return SolveNashCtx(context.Background(), a, us, r0, opt)
}

// SolveNashCtx is SolveNash under a context, polled once per best-response
// round (each round performs n inner line searches, so the poll is
// amortized to nothing).  On cancellation it returns the last iterate —
// R/C/Iters describe real partial progress — together with the typed
// core.ErrCanceled / core.ErrDeadline, which distinguishes "the caller
// gave up" from "the dynamics diverged" (the latter is a nil error with
// Converged == false at MaxIter).
func SolveNashCtx(ctx context.Context, a core.Allocation, us core.Profile, r0 []core.Rate, opt NashOptions) (NashResult, error) {
	return SolveNashWS(ctx, nil, a, us, r0, opt)
}

// SolveNashWS is SolveNashCtx with a caller-owned workspace (nil means
// allocate transient scratch): the fixed-point iterate, the Jacobi round
// buffer, and every inner best-response search reuse ws across rounds —
// and across solves when the caller runs many (trajectories, sweeps,
// Stackelberg inner loops).  The returned R and C are freshly allocated;
// only scratch lives in the workspace.  Results are bit-identical to
// SolveNashCtx, which delegates here.
//
// A per-user game is the class game whose every class has one member:
// the solve runs the class solver's round loop with unit multiplicities,
// so both share every line of arithmetic.
func SolveNashWS(ctx context.Context, ws *Workspace, a core.Allocation, us core.Profile, r0 []core.Rate, opt NashOptions) (NashResult, error) {
	n := len(r0)
	if len(us) != n {
		return NashResult{}, ErrNoProfile
	}
	if ws == nil {
		ws = NewWorkspace()
	}
	g := ws.finite(kernelOf(a), a, us, ws.units(n), opt.BR)
	return ws.solve(ctx, g, r0, opt, make([]float64, n), make([]float64, n))
}

// solve is the one best-response round loop, shared by the per-user and
// class solvers: Gauss–Seidel or Jacobi rounds from r0 with
// damping r ← (1−d)·r + d·BR, stopping when the ∞-norm rate change falls
// to Tol, with ctx polled once per round; then the congestion report and
// the deviation audit (audit), MaxGain = max over free players of best
// response payoff minus current payoff.  rdst and cdst (one entry per
// player) receive the final point and are returned as R and C.
//
// On cancellation mid-rounds it returns the last iterate's rates and the
// rounds completed, with C nil (the point was never accepted, so no
// congestion report is owed for it); cancellation mid-audit returns the
// finished solve with MaxGain covering only the players audited so far —
// a lower bound.
//
//lint:hotpath
func (ws *Workspace) solve(ctx context.Context, g *finiteGame, r0 []float64, opt NashOptions, rdst, cdst []float64) (NashResult, error) {
	k := len(r0)
	opt = opt.withDefaults()
	free := opt.Free
	if free == nil {
		free = ws.allFree(k)
	}
	ws.iter = growFloats(ws.iter, k)
	ws.next = growFloats(ws.next, k)
	r, next := ws.iter, ws.next
	copy(r, r0)
	iters := 0
	converged := false
	for iters = 1; iters <= opt.MaxIter; iters++ {
		if err := core.CtxErr(ctx); err != nil {
			copy(rdst, r)
			return NashResult{R: rdst, Iters: iters - 1}, err
		}
		maxDelta := 0.0
		switch opt.Scheme {
		case Jacobi:
			copy(next, r)
			for d := 0; d < k; d++ {
				if !free[d] {
					continue
				}
				br, _ := g.bestResponse(d, r)
				next[d] = (1-opt.Damping)*r[d] + opt.Damping*br
			}
			for d := 0; d < k; d++ {
				if delta := math.Abs(next[d] - r[d]); delta > maxDelta {
					maxDelta = delta
				}
			}
			copy(r, next)
		default: // GaussSeidel
			for d := 0; d < k; d++ {
				if !free[d] {
					continue
				}
				br, _ := g.bestResponse(d, r)
				nr := (1-opt.Damping)*r[d] + opt.Damping*br
				if delta := math.Abs(nr - r[d]); delta > maxDelta {
					maxDelta = delta
				}
				r[d] = nr
			}
		}
		if maxDelta <= opt.Tol {
			converged = true
			break
		}
	}
	copy(rdst, r)
	g.congestion(cdst, rdst)
	res := NashResult{R: rdst, C: cdst, Converged: converged, Iters: iters}
	var err error
	res.MaxGain, _, err = g.audit(ctx, rdst, cdst, free, opt.Tol)
	return res, err
}

// audit is the deviation audit: one pass of best responses at the point
// r, whose congestion is c, over the free players, with ctx polled
// before each.  maxGain is the largest best-response payoff minus the
// player's payoff at r.  still reports whether every best response lies
// within tol of the player's rate, the round loop's convergence test
// taken undamped, so a point that passes is a fixed point of the loop.
// Cancellation stops the pass: maxGain then covers only the players
// audited so far, a lower bound.
//
//lint:hotpath
func (g *finiteGame) audit(ctx context.Context, r, c []float64, free []bool, tol float64) (maxGain float64, still bool, err error) {
	still = true
	for d := range r {
		if !free[d] {
			continue
		}
		if err := core.CtxErr(ctx); err != nil {
			return maxGain, false, err
		}
		br, best := g.bestResponse(d, r)
		if !(math.Abs(br-r[d]) <= tol) {
			still = false
		}
		if gain := best - g.us[d].Value(r[d], c[d]); gain > maxGain {
			maxGain = gain
		}
	}
	return maxGain, still, nil
}

// finiteGame is a finite game as the round loop sees it: players with
// multiplicities counts (all one for a per-user game), searched on the
// discipline's class arithmetic or, under a generic discipline, per user
// through a.
type finiteGame struct {
	ws     *Workspace
	k      kernel
	a      core.Allocation
	us     core.Profile
	counts []int
	br     BROptions
}

// finite aims the workspace's finiteGame at one game.
func (ws *Workspace) finite(k kernel, a core.Allocation, us core.Profile, counts []int, br BROptions) *finiteGame {
	g := &ws.game
	g.ws, g.k, g.a, g.us, g.counts, g.br = ws, k, a, us, counts, br
	return g
}

//lint:hotpath
func (g *finiteGame) bestResponse(d int, r []float64) (float64, float64) {
	return g.ws.bestResponse(g.k, g.a, g.us[d], r, g.counts, d, g.br)
}

//lint:hotpath
func (g *finiteGame) congestion(dst, r []float64) {
	switch g.k {
	case fairShare:
		g.ws.fs.congestion(dst, r, g.counts)
	case proportional:
		propCongestion(dst, r, g.counts)
	case square:
		for j, rj := range r {
			dst[j] = rj * rj
		}
	default:
		alloc.CongestionInto(g.a, &g.ws.aws, dst, r) //lint:allow feasguard reports C(r) at the solved point; the Allocation contract defines it (with +Inf) on all of R+^n
	}
}

// MultiStartResult reports a multi-start Nash search.  Dropped makes the
// failure mode visible: a sweep where 0 of N starts converged (Dropped ==
// N, All empty) is distinguishable from a sweep that was handed no starts
// (Dropped == 0, All empty) — under the proportional allocation whole
// start sets legitimately fail to converge, and silently thin results
// used to read as "fewer starts".
type MultiStartResult struct {
	// Distinct holds one representative per distinct limit (within tol in
	// the ∞-norm), in first-seen start order.
	Distinct []NashResult
	// All holds every converged solve, in start order.
	All []NashResult
	// Dropped counts starts whose solve errored or failed to converge.
	Dropped int
}

// MultiStartNash solves from several starting points and reports the
// distinct limits found (within tol in the ∞-norm).  For Fair Share
// Distinct always has exactly one element (Theorem 4).  The independent
// solves fan out across runtime.GOMAXPROCS(0) workers; use
// MultiStartNashWorkers to bound the pool.  Bit-identical starts are
// solved once — duplicates share the first occurrence's result (the
// solves are deterministic, so nothing else could come back), and All
// still carries one entry per start, in start order.
func MultiStartNash(a core.Allocation, us core.Profile, starts [][]core.Rate, opt NashOptions, tol float64) MultiStartResult {
	return MultiStartNashWorkers(0, a, us, starts, opt, tol)
}

// MultiStartNashWorkers is MultiStartNash on a pool of the given size
// (≤ 0 means runtime.GOMAXPROCS(0)).  Each start's solve is independent
// and deterministic, and deduplication walks the solved starts in input
// order, so the result is identical for every worker count.
func MultiStartNashWorkers(workers int, a core.Allocation, us core.Profile, starts [][]core.Rate, opt NashOptions, tol float64) MultiStartResult {
	// The background context cannot fire, so the error path is dead.
	res, _ := MultiStartNashCtx(context.Background(), workers, a, us, starts, opt, tol)
	return res
}

// MultiStartNashCtx is MultiStartNashWorkers under a context: the pool
// stops claiming new starts once ctx fires and the typed core.ErrCanceled
// / core.ErrDeadline is returned.  A canceled search's MultiStartResult
// covers only the starts that completed (never-claimed starts count as
// Dropped), so it is a lower bound, not a verdict.
func MultiStartNashCtx(ctx context.Context, workers int, a core.Allocation, us core.Profile, starts [][]core.Rate, opt NashOptions, tol float64) (MultiStartResult, error) {
	// Sweep generators routinely emit bit-identical starts (grid corners,
	// symmetric seeds), and the solves are deterministic, so a duplicate
	// start can only reproduce the first one's result.  Dedup by the
	// exact bit pattern of the start vector — order-sensitive, a permuted
	// start is a different start — fan out one solve per unique start,
	// and expand results back so All / Distinct / Dropped read exactly as
	// if every start had been solved independently.
	uniqOf := make(map[string]int, len(starts))
	reps := make([]int, 0, len(starts)) // first-occurrence start index per unique vector
	uniqIdx := make([]int, len(starts)) // start index -> unique slot
	for k, st := range starts {
		if err := core.CtxErr(ctx); err != nil {
			return MultiStartResult{Dropped: len(starts)}, err
		}
		key := make([]byte, 0, 8*len(st))
		for _, v := range st {
			b := math.Float64bits(float64(v))
			key = append(key, byte(b), byte(b>>8), byte(b>>16), byte(b>>24),
				byte(b>>32), byte(b>>40), byte(b>>48), byte(b>>56))
		}
		j, seen := uniqOf[string(key)]
		if !seen {
			j = len(reps)
			uniqOf[string(key)] = j
			reps = append(reps, k)
		}
		uniqIdx[k] = j
	}
	solved := make([]NashResult, len(reps))
	converged := make([]bool, len(reps))
	ctxErr := parallel.MapOrderedCtx(ctx, workers, len(reps), func(j int) error {
		res, err := SolveNashCtx(ctx, a, us, starts[reps[j]], opt)
		if err != nil || !res.Converged {
			return nil // dropped, not fatal: the count reports it
		}
		solved[j] = res
		converged[j] = true
		return nil
	})
	var out MultiStartResult
	//lint:allow ctxflow O(starts*distinct) dedup of already-solved results; every cancelable solve is behind us and VecDist is ns-scale
	for k := range starts {
		if !converged[uniqIdx[k]] {
			out.Dropped++
			continue
		}
		res := solved[uniqIdx[k]]
		out.All = append(out.All, res)
		dup := false
		for _, d := range out.Distinct {
			if numeric.VecDist(d.R, res.R) <= tol {
				dup = true
				break
			}
		}
		if !dup {
			out.Distinct = append(out.Distinct, res)
		}
	}
	return out, ctxErr
}
