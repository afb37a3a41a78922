package game

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"greednet/internal/alloc"
	"greednet/internal/core"
	"greednet/internal/utility"
)

// legacyBestResponse is the pre-workspace implementation, copied verbatim:
// a fresh r|ⁱx vector per call and a full CongestionOf evaluation per
// probe, searched by legacyMaximizeGrid.  It shares only withDefaults
// with the live code, so the oracle cannot move when the live search
// does.
func legacyBestResponse(a core.Allocation, u core.Utility, r []core.Rate, i int, opt BROptions) (x, val float64) {
	opt = opt.withDefaults()
	rr := append([]float64(nil), r...)
	h := func(x float64) float64 {
		rr[i] = x
		return u.Value(x, a.CongestionOf(rr, i))
	}
	return legacyMaximizeGrid(h, opt.Lo, opt.Hi, opt.GridPoints, opt.Tol)
}

// legacyMaximizeGrid is the grid-seeded golden-section search as it stood
// before the −Inf refinement fallback, frozen as part of the oracle.
func legacyMaximizeGrid(f func(float64) float64, a, b float64, n int, tol float64) (float64, float64) {
	h := (b - a) / float64(n)
	bestI, bestF := 0, math.Inf(-1)
	for i := 0; i <= n; i++ {
		if v := f(a + float64(i)*h); v > bestF {
			bestF, bestI = v, i
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
	fc, fd := f(c), f(d)
	for hi-lo > tol {
		if fc > fd {
			hi, d, fd = d, c, fc
			c = hi - invPhi*(hi-lo)
			fc = f(c)
		} else {
			lo, c, fc = c, d, fd
			d = lo + invPhi*(hi-lo)
			fd = f(d)
		}
	}
	x := lo + (hi-lo)/2
	return x, f(x)
}

// legacyBestResponseNewton is the pre-workspace Newton solver, copied
// verbatim (with its fallbacks routed to legacyBestResponse).
func legacyBestResponseNewton(a core.Allocation, us core.Profile, r []core.Rate, i int, opt BROptions) (x, val float64) {
	opt = opt.withDefaults()
	rr := append([]float64(nil), r...)
	fdc := func(x float64) float64 {
		rr[i] = x
		c := a.CongestionOf(rr, i)
		if math.IsInf(c, 1) {
			return math.Inf(-1)
		}
		d1, _ := alloc.OwnDerivs(a, rr, i)
		return core.MarginalRate(us[i], x, c) + d1
	}
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
		if d == 0 || math.IsNaN(d) {
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
		rr[i] = x
		val = us[i].Value(x, a.CongestionOf(rr, i))
		gx, gval := legacyBestResponse(a, us[i], r, i, BROptions{GridPoints: 16, Tol: 1e-6})
		if gval <= val+1e-9 {
			return x, val
		}
		return gx, gval
	}
	return legacyBestResponse(a, us[i], r, i, opt)
}

// opaque hides an allocation's fast-path interfaces, forcing the generic
// CongestionOf branch of BestResponseWS.
type opaque struct{ core.Allocation }

func fuzzProfileRates(rng *rand.Rand) ([]core.Rate, core.Profile) {
	n := 2 + rng.Intn(7)
	r := make([]core.Rate, n)
	us := make(core.Profile, n)
	for i := range r {
		if rng.Intn(4) == 0 {
			r[i] = float64(1+rng.Intn(3)) / 16 // exact ties
		} else {
			r[i] = (0.05 + 0.9*rng.Float64()) / float64(n)
		}
		us[i] = utility.NewLinear(0.5+rng.Float64(), 0.1+0.4*rng.Float64())
	}
	return r, us
}

// rates64 is a fixed feasible 64-user profile, unsorted, with exact ties.
func rates64() []core.Rate {
	r := make([]core.Rate, 64)
	for i := range r {
		r[i] = (0.3 + 0.5*float64(i%7)/7) / 64
	}
	return r
}

// BestResponseWS (and through it BestResponse and the Nash solvers) must
// return bit-identical (x, val) to the pre-workspace implementation for
// every allocation family, including through a reused warm workspace —
// on fuzzed small games and on a fixed 64-user profile with ties.
func TestBestResponseWSBitIdenticalToLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ws := NewWorkspace()
	allocs := []core.Allocation{
		alloc.FairShare{},
		alloc.Proportional{},
		alloc.Blend{Theta: 0.6},
		alloc.Square{},
		opaque{alloc.FairShare{}}, // generic slow-path branch
	}
	for trial := 0; trial <= 120; trial++ {
		r, us := fuzzProfileRates(rng)
		i := rng.Intn(len(r))
		if trial == 120 {
			r, i = rates64(), 5
			us = make(core.Profile, len(r))
			for j := range us {
				us[j] = utility.NewLinear(1, 0.25)
			}
		}
		for _, a := range allocs {
			wantX, wantV := legacyBestResponse(a, us[i], r, i, BROptions{})
			gotX, gotV := BestResponseWS(ws, a, us[i], r, i, BROptions{})
			if math.Float64bits(gotX) != math.Float64bits(wantX) ||
				math.Float64bits(gotV) != math.Float64bits(wantV) {
				t.Fatalf("%s r=%v i=%d: WS=(%v,%v) legacy=(%v,%v)",
					a.Name(), r, i, gotX, gotV, wantX, wantV)
			}
			nX, nV := legacyBestResponseNewton(a, us, r, i, BROptions{})
			gX, gV := BestResponseNewtonWS(ws, a, us, r, i, BROptions{})
			if math.Float64bits(gX) != math.Float64bits(nX) ||
				math.Float64bits(gV) != math.Float64bits(nV) {
				t.Fatalf("%s r=%v i=%d: NewtonWS=(%v,%v) legacy=(%v,%v)",
					a.Name(), r, i, gX, gV, nX, nV)
			}
		}
	}
}

// Workspace reuse across solves must not leak state between them: solving
// twice through one workspace gives the same bits as fresh workspaces,
// across schemes and allocations.
func TestSolveNashWSReuseIsStateless(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	shared := NewWorkspace()
	for trial := 0; trial < 20; trial++ {
		r0, us := fuzzProfileRates(rng)
		for _, scheme := range []UpdateScheme{GaussSeidel, Jacobi} {
			opt := NashOptions{Scheme: scheme, MaxIter: 40}
			want, err1 := SolveNashWS(context.Background(), NewWorkspace(), alloc.FairShare{}, us, r0, opt)
			got, err2 := SolveNashWS(context.Background(), shared, alloc.FairShare{}, us, r0, opt)
			if err1 != nil || err2 != nil {
				t.Fatalf("solve errors: %v / %v", err1, err2)
			}
			if got.Iters != want.Iters || got.Converged != want.Converged {
				t.Fatalf("shared-ws solve diverged: %+v vs %+v", got, want)
			}
			for i := range want.R {
				if math.Float64bits(got.R[i]) != math.Float64bits(want.R[i]) ||
					math.Float64bits(got.C[i]) != math.Float64bits(want.C[i]) {
					t.Fatalf("shared-ws solve differs at %d: R %v vs %v, C %v vs %v",
						i, got.R[i], want.R[i], got.C[i], want.C[i])
				}
			}
			if math.Float64bits(got.MaxGain) != math.Float64bits(want.MaxGain) {
				t.Fatalf("MaxGain differs: %v vs %v", got.MaxGain, want.MaxGain)
			}
		}
	}
}

// A solve's answer must not depend on what its workspace solved before:
// greedd's workers and perfbench's replays reuse one workspace across
// solves, and the Fair Share argsort starts from the workspace's last
// permutation.  Profile B is solved on a fresh workspace and on one that
// has just solved profile A, of B's size (so B's first argsort repairs
// A's last order) and of another size.  A's equilibrium rates fall with
// the user index, while half of B's users hold one tied rate throughout,
// above the others' equilibrium rates, where the serial chain rounds
// their congestions apart.  Under Blend, whose Fair Share term argsorts
// the whole profile at every probe, a repair that kept A's order among
// those ties instead of B's index order would hand the rounding-level
// differences to the wrong users.
func TestSolveNashWSIndependentOfPriorSolve(t *testing.T) {
	const n = 24
	profileA := func(n int) (core.Profile, []core.Rate) {
		us := make(core.Profile, n)
		r0 := make([]core.Rate, n)
		for i := range us {
			us[i] = utility.NewLinear(1, 0.15+0.005*float64(i))
			r0[i] = (0.3 + 0.5*float64(i%5)/5) / float64(n)
		}
		return us, r0
	}
	usB := utility.Identical(utility.NewLinear(1, 0.25), n)
	rB := make([]core.Rate, n)
	freeB := make([]bool, n)
	for i := range rB {
		rB[i] = 0.03
		freeB[i] = i < n/2
	}
	opt := NashOptions{MaxIter: 60, Tol: 1e-6}
	optB := opt
	optB.Free = freeB
	ctx := context.Background()
	for _, a := range []core.Allocation{alloc.FairShare{}, alloc.Proportional{}, alloc.Blend{Theta: 0.5}} {
		want, err := SolveNashWS(ctx, NewWorkspace(), a, usB, rB, optB)
		if err != nil {
			t.Fatal(err)
		}
		for _, na := range []int{n, n + 7} {
			usA, rA := profileA(na)
			ws := NewWorkspace()
			resA, err := SolveNashWS(ctx, ws, a, usA, rA, opt)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := a.(alloc.Proportional); !ok {
				for i := 1; i < na; i++ {
					if !(resA.R[i] < resA.R[i-1]) {
						t.Fatalf("profile A's rates must fall with the index: R = %v", resA.R)
					}
				}
			}
			got, err := SolveNashWS(ctx, ws, a, usB, rB, optB)
			if err != nil {
				t.Fatal(err)
			}
			if got.Iters != want.Iters || got.Converged != want.Converged ||
				math.Float64bits(got.MaxGain) != math.Float64bits(want.MaxGain) {
				t.Fatalf("%s after an N=%d solve: Iters %d Converged %v MaxGain %v, fresh %d %v %v",
					a.Name(), na, got.Iters, got.Converged, got.MaxGain, want.Iters, want.Converged, want.MaxGain)
			}
			for i := range want.R {
				if math.Float64bits(got.R[i]) != math.Float64bits(want.R[i]) ||
					math.Float64bits(got.C[i]) != math.Float64bits(want.C[i]) {
					t.Fatalf("%s after an N=%d solve, user %d: R %v C %v, fresh R %v C %v",
						a.Name(), na, i, got.R[i], got.C[i], want.R[i], want.C[i])
				}
			}
		}
	}
}

// The returned R must be freshly allocated — a later solve through the
// same workspace must not mutate an earlier result.
func TestSolveNashWSResultsNotAliased(t *testing.T) {
	ws := NewWorkspace()
	us := core.Profile{utility.NewLinear(1, 0.25), utility.NewLinear(0.8, 0.3)}
	first, err := SolveNashWS(context.Background(), ws, alloc.FairShare{}, us, []core.Rate{0.1, 0.2}, NashOptions{MaxIter: 30})
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]float64(nil), first.R...)
	if _, err := SolveNashWS(context.Background(), ws, alloc.FairShare{}, us, []core.Rate{0.3, 0.05}, NashOptions{MaxIter: 30}); err != nil {
		t.Fatal(err)
	}
	for i := range snapshot {
		if math.Float64bits(first.R[i]) != math.Float64bits(snapshot[i]) {
			t.Fatalf("earlier result mutated by workspace reuse at %d", i)
		}
	}
}

// The warm best-response hot path must not allocate — the ≥5×-fewer-
// allocs acceptance criterion, pinned at its 0-alloc target.
func TestBestResponseWSZeroAllocs(t *testing.T) {
	r := []core.Rate{0.1, 0.2, 0.15, 0.05, 0.12, 0.08, 0.03, 0.07}
	// Box the utility into the interface once, outside the measured loop —
	// the solvers hold interfaces already; the conversion is test overhead.
	var u core.Utility = utility.NewLinear(1, 0.25)
	ws := NewWorkspace()
	BestResponseWS(ws, alloc.FairShare{}, u, r, 0, BROptions{}) // warm
	if got := testing.AllocsPerRun(100, func() {
		BestResponseWS(ws, alloc.FairShare{}, u, r, 0, BROptions{})
	}); got != 0 {
		t.Errorf("warm FairShare BestResponseWS allocs/op = %v, want 0", got)
	}
	BestResponseWS(ws, alloc.Proportional{}, u, r, 0, BROptions{})
	if got := testing.AllocsPerRun(100, func() {
		BestResponseWS(ws, alloc.Proportional{}, u, r, 0, BROptions{})
	}); got != 0 {
		t.Errorf("warm Proportional BestResponseWS allocs/op = %v, want 0", got)
	}
}

// NashTrajectory must report the same rate vectors as stepping SolveNash
// round by round (its historical definition).
func TestNashTrajectoryMatchesStepwiseSolves(t *testing.T) {
	us := core.Profile{utility.NewLinear(1, 0.25), utility.NewLinear(0.7, 0.4), utility.NewLinear(1.2, 0.2)}
	r0 := []core.Rate{0.3, 0.1, 0.05}
	const rounds = 6
	traj := NashTrajectory(alloc.FairShare{}, us, r0, NashOptions{}, rounds)
	opt := NashOptions{MaxIter: 1}
	r := r0
	for k := 1; k < len(traj); k++ {
		res, err := SolveNash(alloc.FairShare{}, us, r, opt)
		if err != nil {
			t.Fatal(err)
		}
		r = res.R
		for i := range r {
			if math.Float64bits(traj[k][i]) != math.Float64bits(r[i]) {
				t.Fatalf("round %d user %d: trajectory %v, stepwise %v", k, i, traj[k][i], r[i])
			}
		}
	}
}
