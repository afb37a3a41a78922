package game

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"greednet/internal/alloc"
	"greednet/internal/utility"
)

// genLinearGames draws n seeded linear class games: N users in [2, 64],
// K classes in [1, min(N, 5)], per class A ∈ [0.5, 3] and γ/A ∈
// [0.05, 1.5] (so some classes send nothing), users dealt to the classes
// round-robin, every class starting at total load 0.4.
func genLinearGames(t *testing.T, n int) []ClassGame {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	games := make([]ClassGame, n)
	for i := range games {
		users := 2 + rng.Intn(63)
		classes := make([]Class, 1+rng.Intn(min(users, 5)))
		for j := range classes {
			a := 0.5 + 2.5*rng.Float64()
			classes[j] = Class{U: utility.NewLinear(a, a*(0.05+1.45*rng.Float64())), Rate: 0.4 / float64(users)}
		}
		for u := 0; u < users; u++ {
			classes[u%len(classes)].Count++
		}
		cg, err := NewClassGame(classes)
		if err != nil {
			t.Fatal(err)
		}
		games[i] = cg
	}
	return games
}

// fairShareNash is the Fair Share equilibrium of a linear class game in
// closed form, one per-user rate per class.  Serial cost sharing makes
// it dominance-solvable bottom-up: with p users fixed at load σ, a free
// class, as the smallest of the N − p users left, stops where
// A = γ·g′(x), at stage load x = 1 − √(γ/A), so its candidate rate is
// (x − σ)/(N − p) floored at 0; a held class's (free[j] == false) is its
// own Rate.  The smallest candidate fixes next.  free nil means all free.
func fairShareNash(cg ClassGame, free []bool) []float64 {
	r := make([]float64, cg.K())
	done := make([]bool, cg.K())
	p, sigma := 0, 0.0
	for range cg.Classes {
		next, rate := -1, 0.0
		for j, c := range cg.Classes {
			if done[j] {
				continue
			}
			rj := c.Rate
			if free == nil || free[j] {
				u := c.U.(utility.Linear)
				rj = math.Max(0, (1-math.Sqrt(u.Gamma/u.A)-sigma)/float64(cg.N()-p))
			}
			if next < 0 || rj < rate {
				next, rate = j, rj
			}
		}
		done[next], r[next] = true, rate
		p += cg.Classes[next].Count
		sigma += float64(cg.Classes[next].Count) * rate
	}
	return r
}

// TestLinearClosedForms checks the fluid, class and per-user solvers
// against closed-form equilibria on generated linear games.  Under Fair
// Share N·r is the same at every N and equals the fluid ŷ, so all three
// layers answer to one formula, each scaled rate relative to
// max(ŷ, 1e-2); the per-user solve runs where it is cheap (N ≤ 16).  A
// fixed game holds one class mid-chain under the same Free mask on the
// class and fluid solves.  Under the proportional allocation N identical
// users carry total load 1 − x, where A·x² − γ(1 − 1/N)·x − γ/N = 0.
func TestLinearClosedForms(t *testing.T) {
	ctx := context.Background()
	fs, prop := alloc.FairShare{}, alloc.Proportional{}
	ws := NewWorkspace()
	check := func(game, layer string, j int, got, want float64) {
		t.Helper()
		if e := math.Abs(got-want) / math.Max(want, 1e-2); e > 1e-4 {
			t.Errorf("%s: %s class %d: scaled rate %.9g, closed form %.9g (rel %.2g)", game, layer, j, got, want, e)
		}
	}
	solveFair := func(game string, cg ClassGame, free []bool) {
		t.Helper()
		n := float64(cg.N())
		want := fairShareNash(cg, free)
		fl, err := SolveNashFluid(ctx, fs, cg, NashOptions{Free: free})
		if err != nil || !fl.Converged {
			t.Errorf("%s: fluid: converged %v, err %v", game, fl.Converged, err)
		}
		cres, err := SolveNashClassWS(ctx, ws, fs, cg, nil, NashOptions{Free: free})
		if err != nil || !cres.Converged {
			t.Errorf("%s: class: converged %v, err %v", game, cres.Converged, err)
		}
		for j := range want {
			if fl.Y != nil {
				check(game, "fluid", j, fl.Y[j], n*want[j])
			}
			if cres.R != nil {
				check(game, "class", j, n*cres.R[j], n*want[j])
			}
		}
		if cg.N() > 16 || free != nil {
			return
		}
		us, r0 := cg.Expand()
		xres, err := SolveNashCtx(ctx, fs, us, r0, NashOptions{})
		if err != nil || !xres.Converged {
			t.Errorf("%s: per-user: converged %v, err %v", game, xres.Converged, err)
			return
		}
		pos := 0
		for j, c := range cg.Classes {
			for m := 0; m < c.Count; m++ {
				check(game, "per-user", j, n*xres.R[pos+m], n*want[j])
			}
			pos += c.Count
		}
	}

	for i, cg := range genLinearGames(t, 200) {
		game := fmt.Sprintf("game %d", i)
		solveFair(game, cg, nil)
		// Proportional: N identical users of the game's first class.
		u, n := cg.Classes[0].U.(utility.Linear), float64(cg.N())
		b := u.Gamma * (1 - 1/n)
		x := (b + math.Sqrt(b*b+4*u.A*u.Gamma/n)) / (2 * u.A)
		want := math.Max(0, 1-x)
		sym, err := NewClassGame([]Class{{U: u, Rate: 0.4 / n, Count: cg.N()}})
		if err != nil {
			t.Fatal(err)
		}
		cres, err := SolveNashClassWS(ctx, ws, prop, sym, nil, NashOptions{})
		if err != nil {
			t.Fatalf("%s: proportional class: %v", game, err)
		}
		check(game, "proportional class", 0, n*cres.R[0], want)
		if cg.N() > 16 {
			continue
		}
		us, r0 := sym.Expand()
		xres, err := SolveNashCtx(ctx, prop, us, r0, NashOptions{})
		if err != nil {
			t.Fatalf("%s: proportional per-user: %v", game, err)
		}
		got := 0.0
		for _, r := range xres.R {
			got += r
		}
		check(game, "proportional per-user", 0, got, want)
	}

	// A held class mid-chain: at ŷ = 0.6 it fixes second, between the
	// free classes' rates 0.452 and 0.603.
	hold := utility.NewLinear(1, 0.5)
	held, err := NewClassGame([]Class{
		{U: utility.NewLinear(1, 0.2), Rate: 0.4 / 48, Count: 16},
		{U: hold, Rate: 0.6 / 48, Count: 16},
		{U: utility.NewLinear(2, 0.6), Rate: 0.4 / 48, Count: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	free := make([]bool, held.K())
	for j, c := range held.Classes {
		free[j] = c.U != hold
	}
	solveFair("held-class game", held, free)
}
