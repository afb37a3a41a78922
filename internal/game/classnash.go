package game

import (
	"context"

	"greednet/internal/core"
)

// SolveNashClass runs class-aggregated best-response iteration on cg from
// its own rates.  See SolveNashClassWS.
func SolveNashClass(a core.Allocation, cg ClassGame, opt NashOptions) (NashResult, error) {
	return SolveNashClassWS(context.Background(), nil, a, cg, nil, opt)
}

// SolveNashClassWS is the workspace form: r0 (nil means cg's own rates)
// is the per-class starting vector, ws may be nil for transient scratch,
// opt.Free (if set) has one entry per class, and the returned R/C are
// freshly allocated per-class vectors.  Results are bit-identical to
// SolveNashClassInto, which it delegates to.
func SolveNashClassWS(ctx context.Context, ws *Workspace, a core.Allocation, cg ClassGame, r0 []core.Rate, opt NashOptions) (NashResult, error) {
	if ws == nil {
		ws = NewWorkspace()
	}
	if r0 == nil {
		r0 = cg.Rates()
	}
	k := cg.K()
	return SolveNashClassInto(ctx, ws, a, cg, r0, opt, make([]float64, k), make([]float64, k))
}

// SolveNashClassInto is the zero-allocation form: rdst and cdst (length
// K) receive the final per-class rates and congestions and are returned
// as the result's R and C.  With a warm workspace and a discipline with
// class arithmetic (Fair Share, Proportional, Square) the steady state
// performs no heap allocation — the BENCH_classes.json gate pins
// allocs/op = 0 at N = 10^6, K = 8.
//
// It runs the same round loop as SolveNashWS, with one player per class
// standing for Count identical members, so a round costs O(K log K)
// whatever N is; a per-user solve is the case K = N.  Disciplines with
// no class arithmetic fall back to solving the expanded game per user
// (O(N)) and report each class at its first member.
func SolveNashClassInto(ctx context.Context, ws *Workspace, a core.Allocation, cg ClassGame, r0 []core.Rate, opt NashOptions, rdst, cdst []float64) (NashResult, error) {
	k := cg.K()
	if len(r0) != k || len(rdst) != k || len(cdst) != k {
		return NashResult{}, ErrNoProfile
	}
	if k == 0 {
		return NashResult{}, ErrBadClass
	}
	kind := kernelOf(a)
	if kind == generic {
		return solveNashClassExpanded(ctx, ws, a, cg, r0, opt, rdst, cdst)
	}
	return solveNashClassKernel(ctx, ws, kind, a, cg, r0, opt, rdst, cdst)
}

// solveNashClassKernel stages the class multiplicities and utilities in
// the workspace and runs the shared round loop on the class arithmetic.
//
//lint:hotpath
func solveNashClassKernel(ctx context.Context, ws *Workspace, kind kernel, a core.Allocation, cg ClassGame, r0 []core.Rate, opt NashOptions, rdst, cdst []float64) (NashResult, error) {
	k := cg.K()
	if cap(ws.counts) < k {
		ws.counts = make([]int, k)
		ws.us = make(core.Profile, k)
	}
	counts, us := ws.counts[:k], ws.us[:k]
	for j, c := range cg.Classes {
		counts[j], us[j] = c.Count, c.U
	}
	return ws.solve(ctx, ws.finite(kind, a, us, counts, opt.BR), r0, opt, rdst, cdst)
}

// solveNashClassExpanded is the fallback for disciplines without class
// arithmetic: the game is expanded to its N members and solved per user
// by SolveNashWS, and each class reports its first member in canonical
// expansion order (rounding can split same-class members by an ulp
// mid-iteration; the first member is the deterministic representative).
// O(N) time and memory.
func solveNashClassExpanded(ctx context.Context, ws *Workspace, a core.Allocation, cg ClassGame, r0 []core.Rate, opt NashOptions, rdst, cdst []float64) (NashResult, error) {
	us, _ := cg.Expand()
	xr := cg.ExpandVec(make([]float64, len(us)), r0)
	if opt.Free != nil {
		opt.Free = cg.expandFree(opt.Free)
	}
	res, err := SolveNashWS(ctx, ws, a, us, xr, opt)
	out := NashResult{R: rdst, Converged: res.Converged, Iters: res.Iters, MaxGain: res.MaxGain}
	pos := 0
	for j, c := range cg.Classes {
		rdst[j] = res.R[pos]
		if res.C != nil {
			cdst[j] = res.C[pos]
		}
		pos += c.Count
	}
	if res.C != nil {
		out.C = cdst
	}
	return out, err
}

// SolveNashSeededWS is SolveNashWS for a per-user game whose users carry
// a class index: class[i] in [0, K) with every index in use, and users
// of one class share a utility (greedd groups its clients by utility
// spec).  Under a discipline with class arithmetic, Fair Share or
// Proportional, and with fewer classes than users, it first solves the
// K-class game from each class's mean rate in r0.  Under Fair Share the
// Nash point depends only on the multiset of utilities (Theorem 4), so
// same-utility users share a rate and the class equilibrium is the
// per-user one; under Proportional the class solve's within-class
// symmetric fixed point is a per-user Nash point too.
//
// A converged class answer, expanded to every member, is then checked by
// one per-user sweep: each user's best response at that point is both
// the round loop's convergence test, |BR − r| ≤ Tol, and the user's
// deviation gain.  When every user passes, the point is the answer, with
// Converged, Iters 1 and the sweep's MaxGain.  When one fails (a class
// of mixed utilities, the class solver's large-N miss), the per-user
// round loop and its audit run from that point and report as SolveNashWS
// does, so a poor seed costs rounds, never a weaker check; a context
// fired mid-sweep returns its typed error with the class point as R,
// Iters 0 and C nil, as a loop canceled in its first round does.  Every
// other case (another discipline, one class per user, a Free mask, or a
// class solve that errs or does not converge) is SolveNashWS from r0.
func SolveNashSeededWS(ctx context.Context, ws *Workspace, a core.Allocation, us core.Profile, class []int, r0 []core.Rate, opt NashOptions) (NashResult, error) {
	n := len(r0)
	if len(us) != n || len(class) != n {
		return NashResult{}, ErrNoProfile
	}
	cg := ClassGame{Classes: make([]Class, n)}
	k := 0
	for i, c := range class {
		if c < 0 || c >= n {
			return NashResult{}, ErrBadClass
		}
		cg.Classes[c].U = us[i]
		cg.Classes[c].Rate += r0[i]
		cg.Classes[c].Count++
		k = max(k, c+1)
	}
	cg.Classes = cg.Classes[:k]
	for j := range cg.Classes {
		if cg.Classes[j].Count == 0 {
			return NashResult{}, ErrBadClass
		}
		cg.Classes[j].Rate /= float64(cg.Classes[j].Count)
	}
	if ws == nil {
		ws = NewWorkspace()
	}
	if kind := kernelOf(a); (kind == fairShare || kind == proportional) && k < n && opt.Free == nil {
		if cr, err := SolveNashClassWS(ctx, ws, a, cg, nil, opt); err == nil && cr.Converged {
			seed := make([]core.Rate, n)
			for i, c := range class {
				seed[i] = cr.R[c]
			}
			g := ws.finite(kind, a, us, ws.units(n), opt.BR)
			cong := make([]core.Congestion, n)
			g.congestion(cong, seed)
			gain, still, err := g.audit(ctx, seed, cong, ws.allFree(n), opt.withDefaults().Tol)
			if err == nil && still {
				return NashResult{R: seed, C: cong, Converged: true, Iters: 1, MaxGain: gain}, nil
			}
			r0 = seed
		}
	}
	return SolveNashWS(ctx, ws, a, us, r0, opt)
}
