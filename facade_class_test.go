package greednet_test

import (
	"context"
	"math"
	"testing"

	"greednet"
)

// TestFacadeClassSolve drives the class-aggregated layer end to end
// through the public facade: aggregate a per-user profile, solve the
// class game, and check it against the per-user solver it compresses.
func TestFacadeClassSolve(t *testing.T) {
	us := greednet.Profile{
		greednet.NewLinearUtility(1, 0.2),
		greednet.NewLinearUtility(1, 0.2),
		greednet.NewLinearUtility(1, 0.5),
	}
	r0 := []float64{0.1, 0.1, 0.1}
	cg, classOf, err := greednet.AggregateClasses(us, r0)
	if err != nil {
		t.Fatal(err)
	}
	if cg.K() != 2 || cg.N() != 3 || len(classOf) != 3 {
		t.Fatalf("K=%d N=%d classOf=%v", cg.K(), cg.N(), classOf)
	}
	fs := greednet.NewFairShare()
	cres, err := greednet.SolveNashClass(fs, cg, greednet.NashOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !cres.Converged {
		t.Fatal("class solve did not converge")
	}
	ures, err := greednet.SolveNash(fs, us, r0, greednet.NashOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range classOf {
		if math.Abs(cres.R[j]-ures.R[i]) > 1e-6 {
			t.Errorf("user %d (class %d): class rate %v vs per-user %v", i, j, cres.R[j], ures.R[i])
		}
	}
}

// TestFacadeFluidMatchesLargeN checks the facade's fluid solver against
// a large finite-N class solve: ŷ_j must approximate N·r_j.
func TestFacadeFluidMatchesLargeN(t *testing.T) {
	const n = 1 << 20
	classes := []greednet.Class{
		{U: greednet.NewLinearUtility(1, 0.2), Rate: 0.4 / n, Count: n / 2},
		{U: greednet.NewLinearUtility(1, 0.5), Rate: 0.4 / n, Count: n / 2},
	}
	cg, err := greednet.NewClassGame(classes)
	if err != nil {
		t.Fatal(err)
	}
	fs := greednet.NewFairShare()
	fr, err := greednet.SolveNashFluid(context.Background(), fs, cg, greednet.NashOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !fr.Converged {
		t.Fatal("fluid solve did not converge")
	}
	cres, err := greednet.SolveNashClass(fs, cg, greednet.NashOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for j := range cg.Classes {
		scaled := float64(n) * cres.R[j]
		if math.Abs(fr.Y[j]-scaled) > 1e-3 {
			t.Errorf("class %d: fluid ŷ=%v vs N·r=%v", j, fr.Y[j], scaled)
		}
	}
	// Domain errors surface through the facade's typed sentinels.
	bad, err := greednet.NewClassGame([]greednet.Class{
		{U: greednet.LogUtility{W: 0.3, Gamma: 1}, Rate: 0.1, Count: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := greednet.SolveNashFluid(context.Background(), fs, bad, greednet.NashOptions{}); err == nil {
		t.Error("fluid solve of a log-utility class should fail with ErrFluidUtility")
	}
}
