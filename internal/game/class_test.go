package game

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"greednet/internal/alloc"
	"greednet/internal/core"
	"greednet/internal/profkey"
	"greednet/internal/utility"
)

// classKey renders the canonical profile key of a class game (profkey
// class form): two games share a key iff they expand to the same multiset
// of (utility spec, bit-exact rate) users.
func classKey(cg ClassGame) string {
	entries := make([]profkey.ClassEntry, len(cg.Classes))
	for i, c := range cg.Classes {
		entries[i] = profkey.ClassEntry{Spec: UtilitySpec(c.U), RateVal: c.Rate, Count: c.Count}
	}
	return profkey.Classes(entries)
}

func classDisciplines() []core.Allocation {
	return []core.Allocation{alloc.FairShare{}, alloc.Proportional{}, alloc.Square{}}
}

func TestAggregateExpandRoundTrip(t *testing.T) {
	us := core.Profile{
		utility.NewLinear(1, 0.4),
		utility.Log{W: 0.3, Gamma: 1},
		utility.NewLinear(1, 0.4),
		utility.NewLinear(1, 0.2),
		utility.Log{W: 0.3, Gamma: 1},
	}
	r := []core.Rate{0.05, 0.1, 0.05, 0.07, 0.1}
	cg, classOf, err := Aggregate(us, r)
	if err != nil {
		t.Fatal(err)
	}
	if cg.K() != 3 || cg.N() != 5 {
		t.Fatalf("got K=%d N=%d, want 3, 5", cg.K(), cg.N())
	}
	for i := range us {
		c := cg.Classes[classOf[i]]
		if math.Float64bits(c.Rate) != math.Float64bits(r[i]) || UtilitySpec(c.U) != UtilitySpec(us[i]) {
			t.Fatalf("classOf[%d] maps to %+v, user has rate %v spec %s", i, c, r[i], UtilitySpec(us[i]))
		}
	}
	xus, xr := cg.Expand()
	cg2, _, err := Aggregate(xus, xr)
	if err != nil {
		t.Fatal(err)
	}
	if classKey(cg2) != classKey(cg) {
		t.Fatalf("Aggregate(Expand) key drifted:\n %q\n %q", classKey(cg2), classKey(cg))
	}
	for j := range cg.Classes {
		a, b := cg.Classes[j], cg2.Classes[j]
		if a.Count != b.Count || math.Float64bits(a.Rate) != math.Float64bits(b.Rate) || UtilitySpec(a.U) != UtilitySpec(b.U) {
			t.Fatalf("class %d not reproduced: %+v vs %+v", j, a, b)
		}
	}
}

func TestExpandVec(t *testing.T) {
	cg, err := NewClassGame([]Class{
		{U: utility.NewLinear(1, 0.3), Rate: 0.1, Count: 3},
		{U: utility.NewLinear(1, 0.5), Rate: 0.2, Count: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, cg.N())
	cg.ExpandVec(dst, []float64{7, 9})
	want := []float64{7, 7, 7, 9, 9}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("ExpandVec = %v, want %v", dst, want)
		}
	}
}

// fullEval hides a discipline's concrete type while forwarding its
// core.AllocationInto fast path, so SolveNashWS on it evaluates every
// best-response probe through the full CongestionInto: an oracle that
// shares no kernel with the class arithmetic it checks.
type fullEval struct{ core.AllocationInto }

// bitEqualSolve asserts the class result matches the exact per-user result
// Float64bits-for-Float64bits at each class's first expanded member.
func bitEqualSolve(t *testing.T, name string, cg ClassGame, cres, xres NashResult) {
	t.Helper()
	if cres.Converged != xres.Converged || cres.Iters != xres.Iters {
		t.Fatalf("%s: converged/iters (%v, %d) vs exact (%v, %d)",
			name, cres.Converged, cres.Iters, xres.Converged, xres.Iters)
	}
	pos := 0
	for j, c := range cg.Classes {
		if math.Float64bits(cres.R[j]) != math.Float64bits(xres.R[pos]) {
			t.Errorf("%s: class %d rate %x != exact %x", name, j, cres.R[j], xres.R[pos])
		}
		if math.Float64bits(cres.C[j]) != math.Float64bits(xres.C[pos]) {
			t.Errorf("%s: class %d congestion %x != exact %x", name, j, cres.C[j], xres.C[pos])
		}
		pos += c.Count
	}
}

// TestSolveNashClassFastBitEqualKN pins the by-construction claim: with
// every user its own class (K = N), the class arithmetic degenerates to
// the exact per-user expression sequence, so SolveNashClassWS is
// Float64bits-equal to the per-user solve of the expanded profile —
// rates, congestions, iteration counts, and the deviation audit — under
// both update schemes, across the disciplines with class arithmetic.
// The per-user side runs on fullEval, so every probe there is a full
// congestion evaluation rather than the class kernel under test.
func TestSolveNashClassFastBitEqualKN(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{3, 8, 64} {
		classes := make([]Class, n)
		for j := 0; j < n; j++ {
			classes[j] = Class{
				U:     utility.NewLinear(1, 0.2+0.01*float64(j)),
				Rate:  0.4 / float64(n),
				Count: 1,
			}
		}
		cg, err := NewClassGame(classes)
		if err != nil {
			t.Fatal(err)
		}
		if cg.K() != n {
			t.Fatalf("fixture coalesced: K=%d, want %d", cg.K(), n)
		}
		xus, xr := cg.Expand()
		for _, a := range classDisciplines() {
			for _, scheme := range []UpdateScheme{GaussSeidel, Jacobi} {
				opt := NashOptions{Scheme: scheme, MaxIter: 80}
				xres, err := SolveNashWS(ctx, nil, fullEval{a.(core.AllocationInto)}, xus, xr, opt)
				if err != nil {
					t.Fatal(err)
				}
				cres, err := SolveNashClassWS(ctx, nil, a, cg, nil, opt)
				if err != nil {
					t.Fatal(err)
				}
				name := a.Name() + "/KN"
				if scheme == Jacobi {
					name += "/jacobi"
				}
				bitEqualSolve(t, name, cg, cres, xres)
				if math.Float64bits(cres.MaxGain) != math.Float64bits(xres.MaxGain) {
					t.Errorf("%s: MaxGain %x != exact %x", name, cres.MaxGain, xres.MaxGain)
				}
			}
		}
	}
}

// TestSolveNashClassFastNearExactMultiplicities checks the class
// arithmetic at real multiplicities: the collapsed within-class chain
// steps only perturb sums at rounding level, so the class equilibrium
// must sit within solver tolerance of the exact equilibrium of the
// expansion.
func TestSolveNashClassFastNearExactMultiplicities(t *testing.T) {
	ctx := context.Background()
	cg, err := NewClassGame([]Class{
		{U: utility.NewLinear(1, 0.3), Rate: 0.01, Count: 12},
		{U: utility.NewLinear(1, 0.6), Rate: 0.02, Count: 7},
		{U: utility.Log{W: 0.3, Gamma: 1}, Rate: 0.005, Count: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	xus, xr := cg.Expand()
	a := alloc.FairShare{}
	xres, err := SolveNashWS(ctx, nil, a, xus, xr, NashOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cres, err := SolveNashClassWS(ctx, nil, a, cg, nil, NashOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !cres.Converged || !xres.Converged {
		t.Fatalf("converged: class %v exact %v", cres.Converged, xres.Converged)
	}
	pos := 0
	for j, c := range cg.Classes {
		if d := math.Abs(cres.R[j] - xres.R[pos]); d > 1e-6 {
			t.Errorf("class %d rate off by %g: %v vs exact %v", j, d, cres.R[j], xres.R[pos])
		}
		pos += c.Count
	}
	if cres.MaxGain > 1e-4 {
		t.Errorf("class equilibrium leaves deviation gain %g", cres.MaxGain)
	}
}

// TestSolveNashClassLargeMultiplicityStable is a regression test for the
// whole-class overshoot divergence: when one class vacates capacity, the
// unrestricted single-deviator best response rationally jumps far above
// the pack, and a large class following en masse floods the network —
// the solver then "converged" on a golden-section artifact near the grid
// step 1/GridPoints.  With the multiplicity clamp in classBestResponseWS
// the active class must instead land on the analytic symmetric point:
// the top member's FOC is γ·g'(X) = 1, so total load X = 1 − √γ — for
// γ = 1/2 that is X = 1 − 1/√2, carried by the n/2 active users.
func TestSolveNashClassLargeMultiplicityStable(t *testing.T) {
	ctx := context.Background()
	n := 1 << 14
	cg, err := NewClassGame([]Class{
		{U: utility.NewLinear(1, 0.5), Rate: 0.5 / float64(n), Count: n / 2},
		// γ > 1 makes γ·g' > 1 everywhere: this class exits to its Lo
		// corner, vacating the capacity that used to trigger the jump.
		{U: utility.NewLinear(1, 1.5), Rate: 0.5 / float64(n), Count: n / 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveNashClassWS(ctx, nil, alloc.FairShare{}, cg, nil, NashOptions{Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("class solve did not converge")
	}
	// Total load at the FOC point: X = 1 − 1/√2, split over n/2 senders.
	want := (1 - 1/math.Sqrt2) / float64(n/2)
	if rel := math.Abs(res.R[0]-want) / want; rel > 1e-3 {
		t.Errorf("active class rate %g, want %g (rel %g)", res.R[0], want, rel)
	}
	if res.R[1] > 1e-6 {
		t.Errorf("exited class still sends %g", res.R[1])
	}
	// The old failure signature: both classes parked on the golden-section
	// artifact at ≈ 1/GridPoints.
	if math.Abs(res.R[0]-1.0/64) < 1e-3 {
		t.Errorf("active class rate %g sits on the 1/GridPoints artifact", res.R[0])
	}
}

// TestSolveNashClassFreeHoldsClasses mirrors the per-user Free contract:
// a pinned class holds its start rate while free classes equilibrate.
func TestSolveNashClassFreeHoldsClasses(t *testing.T) {
	cg, err := NewClassGame([]Class{
		{U: utility.NewLinear(1, 0.3), Rate: 0.02, Count: 4},
		{U: utility.NewLinear(1, 0.5), Rate: 0.03, Count: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := NashOptions{Free: []bool{false, true}}
	res, err := SolveNashClass(alloc.FairShare{}, cg, opt)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(res.R[0]) != math.Float64bits(0.02) {
		t.Fatalf("pinned class moved: %v", res.R[0])
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
}

// TestSolveNashSeededFallbacks pins the cases where the class seed must
// not run: a class vector that is not a grouping is refused, and a Free
// mask (whose pinned users hold their posted rates) or a canceled
// context leaves the result SolveNashWS's from the posted rates, bit for
// bit.
func TestSolveNashSeededFallbacks(t *testing.T) {
	ctx := context.Background()
	a := alloc.FairShare{}
	us := core.Profile{utility.NewLinear(1, 0.3), utility.NewLinear(1, 0.5), utility.NewLinear(1, 0.3)}
	r := []core.Rate{0.02, 0.03, 0.04}
	for _, tc := range []struct {
		class []int
		want  error
	}{
		{[]int{0, 1}, ErrNoProfile},
		{[]int{0, -1, 0}, ErrBadClass},
		{[]int{0, 3, 0}, ErrBadClass},
		{[]int{0, 2, 0}, ErrBadClass}, // class 1 has no member
	} {
		if _, err := SolveNashSeededWS(ctx, nil, a, us, tc.class, r, NashOptions{}); err != tc.want {
			t.Errorf("class %v: error %v, want %v", tc.class, err, tc.want)
		}
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	for _, run := range []struct {
		ctx context.Context
		opt NashOptions
	}{
		{ctx, NashOptions{Free: []bool{false, true, true}}},
		{canceled, NashOptions{}},
	} {
		got, gerr := SolveNashSeededWS(run.ctx, nil, a, us, []int{0, 1, 0}, r, run.opt)
		want, werr := SolveNashWS(run.ctx, nil, a, us, r, run.opt)
		if gerr != werr || got.Iters != want.Iters || got.Converged != want.Converged {
			t.Fatalf("free %v: seeded (%v, %d rounds), unseeded (%v, %d rounds)", run.opt.Free, gerr, got.Iters, werr, want.Iters)
		}
		for i := range want.R {
			if math.Float64bits(got.R[i]) != math.Float64bits(want.R[i]) {
				t.Errorf("free %v, user %d: seeded rate %v, unseeded %v", run.opt.Free, i, got.R[i], want.R[i])
			}
		}
	}
}

// seededGame draws a per-user game of n users from the four service
// specs, with rates inside admission; each user's class numbers its spec
// in order of first appearance, as greedd groups its clients.
func seededGame(rng *rand.Rand, n int) (core.Profile, []int, []core.Rate) {
	specs := []core.Utility{utility.NewLinear(1, 4), utility.NewLinear(1, 2), utility.Log{W: 2, Gamma: 1}, utility.Sqrt{W: 1, Gamma: 2}}
	us := make(core.Profile, n)
	class := make([]int, n)
	r := make([]core.Rate, n)
	number := map[int]int{}
	for i := range us {
		s := rng.Intn(len(specs))
		k, seen := number[s]
		if !seen {
			k = len(number)
			number[s] = k
		}
		us[i], class[i] = specs[s], k
		r[i] = (0.2 + 0.75*rng.Float64()) / float64(n)
	}
	return us, class, r
}

// classSeed is the point SolveNashSeededWS starts from: the class game
// with each class at its members' mean rate and its last member's
// utility, solved and expanded to every member.
func classSeed(t *testing.T, ctx context.Context, a core.Allocation, us core.Profile, class []int, r []core.Rate, opt NashOptions) []core.Rate {
	t.Helper()
	k := 0
	for _, c := range class {
		k = max(k, c+1)
	}
	cg := ClassGame{Classes: make([]Class, k)}
	for i, c := range class {
		cg.Classes[c].U = us[i]
		cg.Classes[c].Rate += r[i]
		cg.Classes[c].Count++
	}
	for j := range cg.Classes {
		cg.Classes[j].Rate /= float64(cg.Classes[j].Count)
	}
	cr, err := SolveNashClassWS(ctx, nil, a, cg, nil, opt)
	if err != nil || !cr.Converged {
		t.Fatalf("class solve: converged %v, err %v", cr.Converged, err)
	}
	seed := make([]core.Rate, len(class))
	for i, c := range class {
		seed[i] = cr.R[c]
	}
	return seed
}

// TestSolveNashSeededSweep pins the path greedd takes under Fair Share
// with fewer classes than users: the answer is the class solve's,
// expanded bit for bit, with the per-user congestion of that point,
// Converged in one round, and a MaxGain that is the largest unilateral
// deviation gain over every user.
func TestSolveNashSeededSweep(t *testing.T) {
	a := alloc.FairShare{}
	opt := NashOptions{MaxIter: 200, Tol: 1e-6}
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{5, 16, 64, 128} {
		us, class, r := seededGame(rng, n)
		got, err := SolveNashSeededWS(context.Background(), nil, a, us, class, r, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Converged || got.Iters != 1 {
			t.Errorf("N=%d: converged %v in %d rounds, want one", n, got.Converged, got.Iters)
		}
		seed := classSeed(t, context.Background(), a, us, class, r, opt)
		c := a.Congestion(got.R)
		worst := 0.0
		for i := range us {
			if math.Float64bits(got.R[i]) != math.Float64bits(seed[i]) {
				t.Errorf("N=%d, user %d: rate %v, class answer %v", n, i, got.R[i], seed[i])
			}
			if math.Float64bits(got.C[i]) != math.Float64bits(c[i]) {
				t.Errorf("N=%d, user %d: congestion %v, C(R) %v", n, i, got.C[i], c[i])
			}
			worst = max(worst, DeviationGain(a, us[i], got.R, i, opt.BR))
		}
		if math.Abs(got.MaxGain-worst) > 1e-15 {
			t.Errorf("N=%d: MaxGain %v, largest deviation gain %v", n, got.MaxGain, worst)
		}
	}
}

// TestSolveNashSeededSweepFallbacks pins the two ways the sweep fails.
// A class that mixes two utilities, far apart or within 1e-4 of each
// other, seeds a point that is no per-user fixed point, so the answer
// must be SolveNashWS's from that seed, bit for bit.  A context that
// fires mid-sweep, after the class solve, must return the typed error
// with the class point and no rounds.
func TestSolveNashSeededSweepFallbacks(t *testing.T) {
	ctx := context.Background()
	a := alloc.FairShare{}
	opt := NashOptions{MaxIter: 200, Tol: 1e-6}
	lo, hi := utility.NewLinear(1, 0.3), utility.NewLinear(1, 0.5)
	class := []int{0, 0, 0, 1, 1, 1}
	r := []core.Rate{0.05, 0.06, 0.07, 0.04, 0.08, 0.05}
	for _, odd := range []core.Utility{utility.Log{W: 2, Gamma: 1}, utility.NewLinear(1, 0.5*(1+1e-4))} {
		us := core.Profile{lo, lo, lo, hi, odd, hi}
		seed := classSeed(t, ctx, a, us, class, r, opt)
		got, gerr := SolveNashSeededWS(ctx, nil, a, us, class, r, opt)
		want, werr := SolveNashWS(ctx, nil, a, us, seed, opt)
		if gerr != nil || werr != nil {
			t.Fatalf("%v: errors: seeded %v, from the seed %v", odd, gerr, werr)
		}
		if got.Converged != want.Converged || got.Iters != want.Iters ||
			math.Float64bits(got.MaxGain) != math.Float64bits(want.MaxGain) {
			t.Errorf("%v: seeded (%v, %d rounds, gain %v), from the seed (%v, %d rounds, gain %v)",
				odd, got.Converged, got.Iters, got.MaxGain, want.Converged, want.Iters, want.MaxGain)
		}
		moved := false
		for i := range want.R {
			if math.Float64bits(got.R[i]) != math.Float64bits(want.R[i]) || math.Float64bits(got.C[i]) != math.Float64bits(want.C[i]) {
				t.Errorf("%v, user %d: seeded (%v, %v), from the seed (%v, %v)", odd, i, got.R[i], got.C[i], want.R[i], want.C[i])
			}
			moved = moved || math.Abs(want.R[i]-seed[i]) > opt.Tol
		}
		if !moved {
			t.Fatalf("%v: the mixed-class seed is a per-user fixed point; the sweep would pass", odd)
		}
	}

	// Count the class solve's polls of a live context, then cancel at the
	// sixth user of the sweep.
	us, class, r := seededGame(rand.New(rand.NewSource(4)), 32)
	live, stop := context.WithCancel(ctx)
	defer stop()
	counter := &pollCtx{Context: live}
	seed := classSeed(t, counter, a, us, class, r, opt)
	canceled, cancel := context.WithCancel(ctx)
	defer cancel()
	mid := &pollCtx{Context: canceled, cancel: cancel, at: counter.calls + 2*5 + 1}
	got, err := SolveNashSeededWS(mid, nil, a, us, class, r, opt)
	if !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("canceled mid-sweep: error %v, want %v", err, core.ErrCanceled)
	}
	if got.Converged || got.Iters != 0 || got.C != nil {
		t.Errorf("canceled mid-sweep: converged %v, %d rounds, C %v", got.Converged, got.Iters, got.C)
	}
	for i := range seed {
		if math.Float64bits(got.R[i]) != math.Float64bits(seed[i]) {
			t.Errorf("canceled mid-sweep, user %d: rate %v, class answer %v", i, got.R[i], seed[i])
		}
	}
}

// pollCtx counts the calls of its Done method, two per core.CtxErr poll
// of a live context, and cancels itself at call number at (never when at
// is 0).
type pollCtx struct {
	context.Context
	cancel    context.CancelFunc
	at, calls int
}

func (c *pollCtx) Done() <-chan struct{} {
	c.calls++
	if c.calls == c.at {
		c.cancel()
	}
	return c.Context.Done()
}

// TestSolveNashClassCancel pins the ctx contract: cancellation mid-solve
// returns the typed error with the partial iterate, exactly like
// SolveNashWS.
func TestSolveNashClassCancel(t *testing.T) {
	cg, err := NewClassGame([]Class{
		{U: utility.NewLinear(1, 0.3), Rate: 0.001, Count: 500},
		{U: utility.NewLinear(1, 0.5), Rate: 0.0005, Count: 500},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cres, cerr := SolveNashClassWS(ctx, nil, alloc.FairShare{}, cg, nil, NashOptions{})
	if cerr == nil {
		t.Fatal("expected cancellation error")
	}
	if cres.Iters != 0 || cres.Converged {
		t.Fatalf("canceled solve reported progress: %+v", cres)
	}
}

// TestSolveNashClassGenericDisciplineMirrors checks that disciplines
// without class arithmetic (Blend) fall back to solving the expansion
// per user, matching SolveNashWS on it bit for bit.
func TestSolveNashClassGenericDisciplineMirrors(t *testing.T) {
	ctx := context.Background()
	cg, err := NewClassGame([]Class{
		{U: utility.NewLinear(1, 0.3), Rate: 0.02, Count: 3},
		{U: utility.NewLinear(1, 0.5), Rate: 0.03, Count: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	a := alloc.Blend{Theta: 0.5}
	xus, xr := cg.Expand()
	opt := NashOptions{MaxIter: 60}
	xres, err := SolveNashWS(ctx, nil, a, xus, xr, opt)
	if err != nil {
		t.Fatal(err)
	}
	cres, err := SolveNashClassWS(ctx, nil, a, cg, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	bitEqualSolve(t, "blend/generic", cg, cres, xres)
}

// FuzzAggregateExpand is the satellite fuzz harness: for arbitrary class
// specs, Expand followed by Aggregate must reproduce the canonical class
// game bit for bit (same key, same classes, same multiplicities).
func FuzzAggregateExpand(f *testing.F) {
	f.Add(0.1, 0.2, 0.3, uint8(1), uint8(2), uint8(3))
	f.Add(0.05, 0.05, 0.9, uint8(4), uint8(1), uint8(1))
	f.Add(1e-9, 0.5, 0.999, uint8(9), uint8(9), uint8(9))
	f.Fuzz(func(t *testing.T, r1, r2, r3 float64, c1, c2, c3 uint8) {
		rates := []float64{r1, r2, r3}
		counts := []uint8{c1, c2, c3}
		gammas := []float64{0.3, 0.5, 0.3} // classes 0 and 2 share a utility
		var classes []Class
		for i := range rates {
			if !(rates[i] > 0) || rates[i] >= 1 || counts[i] == 0 || counts[i] > 16 {
				continue
			}
			classes = append(classes, Class{
				U:     utility.NewLinear(1, gammas[i]),
				Rate:  rates[i],
				Count: int(counts[i]),
			})
		}
		if len(classes) == 0 {
			return
		}
		cg, err := NewClassGame(classes)
		if err != nil {
			t.Fatal(err)
		}
		xus, xr := cg.Expand()
		if len(xr) != cg.N() {
			t.Fatalf("Expand produced %d users, want %d", len(xr), cg.N())
		}
		back, classOf, err := Aggregate(xus, xr)
		if err != nil {
			t.Fatal(err)
		}
		if classKey(back) != classKey(cg) {
			t.Fatalf("round-trip key drifted:\n %q\n %q", classKey(back), classKey(cg))
		}
		if back.K() != cg.K() || back.N() != cg.N() {
			t.Fatalf("round trip: K %d→%d, N %d→%d", cg.K(), back.K(), cg.N(), back.N())
		}
		for j := range cg.Classes {
			a, b := cg.Classes[j], back.Classes[j]
			if a.Count != b.Count || math.Float64bits(a.Rate) != math.Float64bits(b.Rate) || UtilitySpec(a.U) != UtilitySpec(b.U) {
				t.Fatalf("class %d: %+v vs %+v", j, a, b)
			}
		}
		// classOf must point every expanded user at a bit-matching class.
		for i := range xr {
			c := back.Classes[classOf[i]]
			if math.Float64bits(c.Rate) != math.Float64bits(xr[i]) {
				t.Fatalf("user %d mapped to class with rate %x, has %x", i, c.Rate, xr[i])
			}
		}
	})
}
