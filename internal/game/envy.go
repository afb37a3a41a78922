package game

import (
	"math"

	"greednet/internal/core"
)

// EnvyMatrix returns E with E[i][j] = U_i(r_j, c_j) − U_i(r_i, c_i): how
// much user i prefers user j's allocation to her own, measured with user
// i's own preferences (Definition in §4.1.2 — envy never compares two
// different users' utility scales).
func EnvyMatrix(us core.Profile, p core.Point) [][]float64 {
	n := len(p.R)
	out := make([][]float64, n)
	for i := 0; i < n; i++ {
		out[i] = make([]float64, n)
		own := us[i].Value(p.R[i], p.C[i])
		for j := 0; j < n; j++ {
			out[i][j] = us[i].Value(p.R[j], p.C[j]) - own
		}
	}
	return out
}

// MaxEnvy returns the largest positive entry of the envy matrix and the
// (envier, envied) pair attaining it.  Zero (with indices −1) means the
// allocation is envy-free.
func MaxEnvy(us core.Profile, p core.Point) (amount float64, envier, envied int) {
	envier, envied = -1, -1
	m := EnvyMatrix(us, p)
	for i := range m {
		for j := range m[i] {
			if i != j && m[i][j] > amount {
				amount, envier, envied = m[i][j], i, j
			}
		}
	}
	return amount, envier, envied
}

// UnilateralEnvy measures the paper's unilaterally-envy-free condition
// (Definition 4) for user i: it replaces r_i with user i's best response to
// the other components of r, then returns the maximum envy user i feels at
// the resulting point.  A discipline is unilaterally envy-free iff this is
// ≤ 0 for every i, every r, and every admissible utility; Fair Share
// guarantees it (Theorem 3).
func UnilateralEnvy(a core.Allocation, us core.Profile, r []core.Rate, i int, opt BROptions) float64 {
	br, _ := BestResponse(a, us[i], r, i, opt)
	rr := core.WithRate(r, i, br)
	p := core.At(a, rr)
	own := us[i].Value(p.R[i], p.C[i])
	worst := math.Inf(-1)
	for j := range rr {
		if j == i {
			continue
		}
		if v := us[i].Value(p.R[j], p.C[j]) - own; v > worst {
			worst = v
		}
	}
	return worst
}
