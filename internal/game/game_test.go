package game

import (
	"math"
	"math/rand"
	"testing"

	"greednet/internal/alloc"
	"greednet/internal/core"
	"greednet/internal/mm1"
	"greednet/internal/numeric"
	"greednet/internal/utility"
)

// Linear utilities U = r − γc admit interior equilibria only for γ < 1
// (near zero load congestion costs ≈ r, so γ ≥ 1 drives rates to zero).
// Closed forms used as anchors below:
//
//   Fair Share, N identical users:  Nash rate r* = (1 − √γ)/N.
//   Proportional (FIFO), one user vs fixed others with slack t = 1 − Σ_{j≠i} r_j:
//   best response x = t − √(γ t) when t > γ.

func TestBestResponseProportionalClosedForm(t *testing.T) {
	gamma := 0.25
	u := utility.NewLinear(1, gamma)
	r := []float64{0.1, 0.2, 0.15}
	i := 0
	tt := 1 - r[1] - r[2]
	want := tt - math.Sqrt(gamma*tt)
	x, _ := BestResponse(alloc.Proportional{}, u, r, i, BROptions{})
	if math.Abs(x-want) > 1e-6 {
		t.Errorf("best response %v, want %v", x, want)
	}
}

func TestBestResponseCornerAtHighGamma(t *testing.T) {
	// γ ≥ 1 makes sending pointless; best response collapses to the floor.
	u := utility.NewLinear(1, 2)
	x, _ := BestResponse(alloc.Proportional{}, u, []float64{0.1, 0.2}, 0, BROptions{})
	if x > 1e-6 {
		t.Errorf("best response %v, want ≈0", x)
	}
}

func TestFairShareSymmetricNashClosedForm(t *testing.T) {
	for _, n := range []int{2, 3, 5} {
		gamma := 0.25
		want := (1 - math.Sqrt(gamma)) / float64(n)
		us := utility.Identical(utility.NewLinear(1, gamma), n)
		r0 := make([]float64, n)
		for i := range r0 {
			r0[i] = 0.8 / float64(n) * (0.3 + 0.1*float64(i))
		}
		res, err := SolveNash(alloc.FairShare{}, us, r0, NashOptions{})
		if err != nil || !res.Converged {
			t.Fatalf("n=%d: solve failed: %v conv=%v", n, err, res.Converged)
		}
		for i, ri := range res.R {
			if math.Abs(ri-want) > 1e-6 {
				t.Errorf("n=%d: r[%d]=%v, want %v", n, i, ri, want)
			}
		}
		if res.MaxGain > 1e-7 {
			t.Errorf("n=%d: max deviation gain %v", n, res.MaxGain)
		}
	}
}

func TestProportionalSymmetricNashMatchesScalarEquation(t *testing.T) {
	// Symmetric FIFO Nash solves (1−s)² = γ(1−s+r) with s = N r.
	n := 4
	gamma := 0.2
	us := utility.Identical(utility.NewLinear(1, gamma), n)
	r0 := []float64{0.1, 0.1, 0.1, 0.1}
	res, err := SolveNash(alloc.Proportional{}, us, r0, NashOptions{})
	if err != nil || !res.Converged {
		t.Fatalf("solve failed: %v conv=%v", err, res.Converged)
	}
	fn := func(r float64) float64 {
		s := float64(n) * r
		return (1-s)*(1-s) - gamma*(1-s+r)
	}
	rstar, err := numeric.Brent(fn, 1e-6, 1/float64(n)-1e-6, 1e-13)
	if err != nil {
		t.Fatalf("scalar solve: %v", err)
	}
	for i, ri := range res.R {
		if math.Abs(ri-rstar) > 1e-6 {
			t.Errorf("r[%d]=%v, want %v", i, ri, rstar)
		}
	}
}

func TestNashResidualVanishesAtEquilibrium(t *testing.T) {
	n := 3
	gamma := 0.3
	us := utility.Identical(utility.NewLinear(1, gamma), n)
	res, err := SolveNash(alloc.FairShare{}, us, []float64{0.1, 0.15, 0.2}, NashOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e := NashResidual(alloc.FairShare{}, us, res.R)
	if numeric.VecNormInf(e) > 1e-4 {
		t.Errorf("Nash residual %v should vanish at equilibrium", e)
	}
}

func TestFairShareUniqueness(t *testing.T) {
	// Theorem 4: one Nash equilibrium regardless of start.
	rng := rand.New(rand.NewSource(5))
	us := core.Profile{
		utility.NewLinear(1, 0.3),
		utility.Log{W: 0.3, Gamma: 1},
		utility.Sqrt{W: 1, Gamma: 2},
		utility.Power{A: 1, Gamma: 0.8, P: 1.4},
	}
	starts := make([][]float64, 12)
	for k := range starts {
		s := make([]float64, len(us))
		for i := range s {
			s[i] = 0.02 + 0.2*rng.Float64()
		}
		starts[k] = s
	}
	ms := MultiStartNash(alloc.FairShare{}, us, starts, NashOptions{}, 1e-5)
	if len(ms.All) != len(starts) {
		t.Fatalf("only %d/%d starts converged", len(ms.All), len(starts))
	}
	if len(ms.Distinct) != 1 {
		t.Fatalf("found %d distinct FS equilibria, want 1", len(ms.Distinct))
	}
}

func TestProportionalNashNotPareto(t *testing.T) {
	// Theorem 1 / §4.1.1: proportional Nash equilibria are never Pareto.
	n := 3
	gamma := 0.2
	us := utility.Identical(utility.NewLinear(1, gamma), n)
	res, err := SolveNash(alloc.Proportional{}, us, []float64{0.1, 0.1, 0.1}, NashOptions{})
	if err != nil || !res.Converged {
		t.Fatal("solve failed")
	}
	p := core.Point{R: res.R, C: res.C}
	if numeric.VecNormInf(ParetoResidual(us, p)) <= 1e-6 {
		t.Error("proportional Nash should violate the Pareto FDC")
	}
	// Constructive: a dominating feasible point exists.
	w := FindDominating(us, p, rand.New(rand.NewSource(6)), 4000)
	if w == nil {
		t.Error("expected a Pareto-dominating witness for the FIFO Nash")
	}
}

func TestFairShareSymmetricNashIsPareto(t *testing.T) {
	// Theorem 2(2): with identical users the FS Nash is the symmetric
	// Pareto point.
	n := 4
	gamma := 0.25
	u := utility.NewLinear(1, gamma)
	us := utility.Identical(u, n)
	res, err := SolveNash(alloc.FairShare{}, us, []float64{0.05, 0.1, 0.15, 0.2}, NashOptions{})
	if err != nil || !res.Converged {
		t.Fatal("solve failed")
	}
	p := core.Point{R: res.R, C: res.C}
	if numeric.VecNormInf(ParetoResidual(us, p)) > 1e-4 {
		t.Errorf("FS symmetric Nash should satisfy the Pareto FDC; residual %v",
			ParetoResidual(us, p))
	}
	rp, cp, ok := SymmetricParetoRate(u, n)
	if !ok {
		t.Fatal("no symmetric Pareto rate found")
	}
	for i := range p.R {
		if math.Abs(p.R[i]-rp) > 1e-6 || math.Abs(p.C[i]-cp) > 1e-5 {
			t.Errorf("FS Nash (%v, %v) differs from symmetric Pareto (%v, %v)",
				p.R[i], p.C[i], rp, cp)
		}
	}
}

func TestHeterogeneousFairShareNashNotPareto(t *testing.T) {
	// Theorem 1 applies to Fair Share too: with heterogeneous users its
	// Nash equilibrium is generally not Pareto optimal.
	us := core.Profile{utility.NewLinear(1, 0.1), utility.NewLinear(1, 0.6)}
	res, err := SolveNash(alloc.FairShare{}, us, []float64{0.2, 0.2}, NashOptions{})
	if err != nil || !res.Converged {
		t.Fatal("solve failed")
	}
	if math.Abs(res.R[0]-res.R[1]) < 1e-6 {
		t.Fatal("expected asymmetric equilibrium")
	}
	if numeric.VecNormInf(ParetoResidual(us, core.Point{R: res.R, C: res.C})) <= 1e-6 {
		t.Error("asymmetric FS Nash should not satisfy the Pareto FDC (Theorem 2)")
	}
}

func TestEnvyAtProportionalNash(t *testing.T) {
	// With linear utilities, at any interior proportional Nash every user
	// envies every larger sender (allocations lie on a ray c = r/(1−s) and
	// the optimizing user's FDC forces a positive slope preference).
	us := core.Profile{utility.NewLinear(1, 0.25), utility.NewLinear(1, 0.3)}
	res, err := SolveNash(alloc.Proportional{}, us, []float64{0.1, 0.1}, NashOptions{})
	if err != nil || !res.Converged {
		t.Fatal("solve failed")
	}
	amount, envier, envied := MaxEnvy(us, core.Point{R: res.R, C: res.C})
	if amount <= 1e-9 {
		t.Fatalf("expected envy at proportional Nash, got %v", amount)
	}
	if res.R[envier] >= res.R[envied] {
		t.Errorf("envier %d should be the smaller sender (r=%v)", envier, res.R)
	}
}

func TestFairShareNashEnvyFree(t *testing.T) {
	// Theorem 3: FS equilibria are envy-free, any profile.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(3)
		us := utility.RandomProfile(rng, n)
		r0 := make([]float64, n)
		for i := range r0 {
			r0[i] = 0.05 + 0.2*rng.Float64()
		}
		res, err := SolveNash(alloc.FairShare{}, us, r0, NashOptions{})
		if err != nil || !res.Converged {
			t.Fatalf("trial %d: solve failed", trial)
		}
		if amount, i, j := MaxEnvy(us, core.Point{R: res.R, C: res.C}); amount > 1e-7 {
			t.Fatalf("trial %d: FS Nash envious: user %d envies %d by %v", trial, i, j, amount)
		}
	}
}

func TestFairShareUnilaterallyEnvyFree(t *testing.T) {
	// Theorem 3(1): after best-responding, a user envies no one — whatever
	// the others do, including overload.
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(3)
		us := utility.RandomProfile(rng, n)
		r := make([]float64, n)
		for i := range r {
			r[i] = 0.02 + 0.5*rng.Float64()
		}
		i := rng.Intn(n)
		if v := UnilateralEnvy(alloc.FairShare{}, us, r, i, BROptions{}); v > 1e-6 {
			t.Fatalf("trial %d: FS unilateral envy %v > 0 at r=%v user %d", trial, v, r, i)
		}
	}
}

func TestProportionalNotUnilaterallyEnvyFree(t *testing.T) {
	// A congestion-averse optimizer facing a blaster envies the blaster's
	// allocation under FIFO.
	us := core.Profile{utility.NewLinear(1, 0.15), utility.NewLinear(1, 0.15)}
	r := []float64{0.1, 0.55}
	if v := UnilateralEnvy(alloc.Proportional{}, us, r, 0, BROptions{}); v <= 0 {
		t.Errorf("expected positive unilateral envy under FIFO, got %v", v)
	}
}

func TestProtectionFSvsProportional(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	fs := AttackProtection(alloc.FairShare{}, 0.1, 3, 1.5, rng, 400)
	if fs.Violated {
		t.Errorf("Fair Share protection violated: worst %v > bound %v at %v",
			fs.WorstCongestion, fs.Bound, fs.WorstAttack)
	}
	pr := AttackProtection(alloc.Proportional{}, 0.1, 3, 0.98, rng, 400)
	if !pr.Violated {
		t.Errorf("proportional should violate protection: worst %v, bound %v",
			pr.WorstCongestion, pr.Bound)
	}
}

func TestStackelbergFairShareEqualsNash(t *testing.T) {
	// Theorem 5(2): under FS the leader gains nothing.
	us := core.Profile{utility.NewLinear(1, 0.2), utility.NewLinear(1, 0.4)}
	adv, st, nash, err := LeaderAdvantage(alloc.FairShare{}, us, 0, []float64{0.1, 0.1}, StackOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !st.FollowersConverged || !nash.Converged {
		t.Fatal("inner solves failed")
	}
	if math.Abs(adv) > 1e-5 {
		t.Errorf("FS leader advantage %v, want ≈0 (st=%v nash=%v)", adv, st.R, nash.R)
	}
	if numeric.VecDist(st.R, nash.R) > 1e-3 {
		t.Errorf("FS Stackelberg point %v differs from Nash %v", st.R, nash.R)
	}
}

// TestStackelbergKeepsHeldUsers pins that the followers' Nash solve
// honours the caller's Free mask: on the §5.2 mix (two bulk users, two
// interactive users held at 0.01) the held users stay put, so under Fair
// Share the Stackelberg point is the Nash point (Theorem 5), and a
// leader that is held or out of range is an error, not a panic.
func TestStackelbergKeepsHeldUsers(t *testing.T) {
	us := core.Profile{
		utility.NewLinear(1, 0.06), utility.NewLinear(1, 0.10),
		utility.NewLinear(1, 0.50), utility.NewLinear(1, 0.50),
	}
	r0 := []float64{0.1, 0.1, 0.01, 0.01}
	opt := StackOptions{Nash: NashOptions{Free: []bool{true, true, false, false}}}
	adv, st, nash, err := LeaderAdvantage(alloc.FairShare{}, us, 0, r0, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 2; i < 4; i++ {
		if st.R[i] != r0[i] || nash.R[i] != r0[i] {
			t.Errorf("held user %d moved: Stackelberg %v, Nash %v, want %v", i, st.R[i], nash.R[i], r0[i])
		}
	}
	if math.Abs(adv) > 1e-5 || numeric.VecDist(st.R, nash.R) > 1e-3 {
		t.Errorf("FS leader advantage %v, Stackelberg %v vs Nash %v; want the Nash point", adv, st.R, nash.R)
	}
	for _, leader := range []int{-1, 2, 4} {
		if _, err := SolveStackelberg(alloc.FairShare{}, us, leader, r0, opt); err == nil {
			t.Errorf("leader %d: no error, want one (held or out of range)", leader)
		}
	}
}

func TestStackelbergProportionalLeaderGains(t *testing.T) {
	us := core.Profile{utility.NewLinear(1, 0.2), utility.NewLinear(1, 0.2)}
	adv, st, nash, err := LeaderAdvantage(alloc.Proportional{}, us, 0, []float64{0.1, 0.1}, StackOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if adv <= 1e-6 {
		t.Errorf("FIFO leader advantage %v, want > 0 (st=%v nash=%v)", adv, st.R, nash.R)
	}
	if st.R[0] <= nash.R[0] {
		t.Errorf("FIFO leader should send more than at Nash: %v vs %v", st.R[0], nash.R[0])
	}
}

func TestRelaxationMatrixFairShareNilpotent(t *testing.T) {
	// Theorem 7(1): with distinct rates the FS relaxation matrix is
	// strictly lower triangular in the rate order, hence nilpotent.
	us := core.Profile{
		utility.NewLinear(1, 0.2),
		utility.NewLinear(1, 0.35),
		utility.NewLinear(1, 0.5),
	}
	res, err := SolveNash(alloc.FairShare{}, us, []float64{0.1, 0.1, 0.1}, NashOptions{})
	if err != nil || !res.Converged {
		t.Fatal("solve failed")
	}
	A := RelaxationMatrix(alloc.FairShare{}, us, res.R, 1e-6)
	// Entries A[i][j] with r_j > r_i must vanish.
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if res.R[j] > res.R[i] && math.Abs(A.At(i, j)) > 1e-3 {
				t.Errorf("A[%d][%d] = %v should be 0 (r=%v)", i, j, A.At(i, j), res.R)
			}
		}
	}
	if !numeric.IsNilpotent(A, 1e-3) {
		t.Errorf("FS relaxation matrix not nilpotent:\n%v", A)
	}
}

func TestRelaxationProportionalLeadingEigenvalue(t *testing.T) {
	// §4.2.3: for identical linear utilities the proportional relaxation
	// matrix has leading eigenvalue −(N−1)·(t+2r)/(2t+2r), which tends to
	// 1−N in the congestion-insensitive (γ→0) limit, and exceeds 1 in
	// magnitude for all N ≥ 3.
	for _, n := range []int{3, 5} {
		gamma := 0.02
		us := utility.Identical(utility.NewLinear(1, gamma), n)
		r0 := make([]float64, n)
		for i := range r0 {
			r0[i] = 0.5 / float64(n)
		}
		res, err := SolveNash(alloc.Proportional{}, us, r0, NashOptions{})
		if err != nil || !res.Converged {
			t.Fatalf("n=%d: solve failed", n)
		}
		A := RelaxationMatrix(alloc.Proportional{}, us, res.R, 1e-6)
		rho, err := numeric.SpectralRadius(A)
		if err != nil {
			t.Fatal(err)
		}
		if rho <= 1 {
			t.Errorf("n=%d: spectral radius %v, want > 1 (unstable)", n, rho)
		}
		// Analytic prediction at the symmetric point.
		s := mm1.Sum(res.R)
		r := res.R[0]
		tt := 1 - s
		want := float64(n-1) * (tt + 2*r) / (2 * (tt + r))
		if math.Abs(rho-want) > 0.02*want {
			t.Errorf("n=%d: ρ = %v, analytic %v", n, rho, want)
		}
		if want < float64(n-1)*0.8 {
			t.Logf("n=%d note: γ=%v not deep enough in the 1−N limit (ρ→%v)", n, gamma, want)
		}
	}
}

func TestNewtonConvergenceFairShare(t *testing.T) {
	// Theorem 7: nilpotency makes synchronous Newton converge in ≤ N steps
	// in the linear regime.  Start near the equilibrium.
	us := core.Profile{
		utility.NewLinear(1, 0.2),
		utility.NewLinear(1, 0.35),
		utility.NewLinear(1, 0.5),
	}
	res, err := SolveNash(alloc.FairShare{}, us, []float64{0.1, 0.1, 0.1}, NashOptions{})
	if err != nil || !res.Converged {
		t.Fatal("solve failed")
	}
	r0 := append([]float64(nil), res.R...)
	for i := range r0 {
		r0[i] *= 1.02 // small displacement, stays in linear regime
	}
	hist := NewtonConvergence(alloc.FairShare{}, us, r0, 5)
	if hist[len(hist)-1] > 1e-5*hist[0] {
		t.Errorf("FS Newton residuals %v did not collapse", hist)
	}
}

func TestNewtonDivergesProportional(t *testing.T) {
	// For N ≥ 3 identical linear users the synchronous Newton dynamics are
	// linearly unstable under the proportional allocation.
	n := 4
	gamma := 0.05
	us := utility.Identical(utility.NewLinear(1, gamma), n)
	r0 := make([]float64, n)
	for i := range r0 {
		r0[i] = 0.5 / float64(n)
	}
	res, err := SolveNash(alloc.Proportional{}, us, r0, NashOptions{})
	if err != nil || !res.Converged {
		t.Fatal("solve failed")
	}
	start := append([]float64(nil), res.R...)
	for i := range start {
		start[i] *= 1.001
	}
	hist := NewtonConvergence(alloc.Proportional{}, us, start, 8)
	if hist[len(hist)-1] < hist[0] {
		t.Errorf("expected Newton residual growth under FIFO, got %v", hist)
	}
}

func TestSolveNashProfileMismatch(t *testing.T) {
	us := utility.Identical(utility.NewLinear(1, 0.3), 2)
	if _, err := SolveNash(alloc.FairShare{}, us, []float64{0.1, 0.1, 0.1}, NashOptions{}); err == nil {
		t.Error("expected ErrNoProfile")
	}
}

func TestFixedUsersHoldRates(t *testing.T) {
	us := utility.Identical(utility.NewLinear(1, 0.3), 3)
	opt := NashOptions{Free: []bool{true, false, true}}
	res, err := SolveNash(alloc.FairShare{}, us, []float64{0.1, 0.22, 0.1}, opt)
	if err != nil || !res.Converged {
		t.Fatal("solve failed")
	}
	if res.R[1] != 0.22 {
		t.Errorf("fixed user moved: %v", res.R[1])
	}
}

func TestJacobiSchemeConvergesFS(t *testing.T) {
	us := utility.Identical(utility.NewLinear(1, 0.25), 3)
	res, err := SolveNash(alloc.FairShare{}, us, []float64{0.05, 0.1, 0.15},
		NashOptions{Scheme: Jacobi})
	if err != nil || !res.Converged {
		t.Fatalf("Jacobi FS solve failed: %+v", res)
	}
}

func TestOrdinalInvarianceOfNash(t *testing.T) {
	// Rescaling a utility monotonically must not move the equilibrium.
	base := core.Profile{utility.NewLinear(1, 0.2), utility.Log{W: 0.4, Gamma: 1}}
	scaled := core.Profile{
		utility.Scaled{U: base[0], Scale: 12, Shift: 3},
		utility.Scaled{U: base[1], Scale: 0.01, Shift: -99},
	}
	r0 := []float64{0.1, 0.1}
	a, err := SolveNash(alloc.FairShare{}, base, r0, NashOptions{})
	if err != nil || !a.Converged {
		t.Fatal("base solve failed")
	}
	b, err := SolveNash(alloc.FairShare{}, scaled, r0, NashOptions{})
	if err != nil || !b.Converged {
		t.Fatal("scaled solve failed")
	}
	if numeric.VecDist(a.R, b.R) > 1e-6 {
		t.Errorf("Nash moved under ordinal rescaling: %v vs %v", a.R, b.R)
	}
}
