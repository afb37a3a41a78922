package alloc

import (
	"math"
	"sort"

	"greednet/internal/core"

	"greednet/internal/mm1"
)

// FairShare is the paper's Fair Share allocation function — the serial cost
// sharing method of Moulin and Shenker.  With users relabeled so that the
// rates are ascending and σ_k = Σ_{j≤k} r_j, define
//
//	x_k = (N−k+1)·r_k + σ_{k−1}
//	C_1 = g(x_1)/N
//	C_k = C_{k−1} + (g(x_k) − g(x_{k−1})) / (N−k+1)
//
// The x_k are nondecreasing, so once the "as-if-everyone-sent-like-user-k"
// load x_k reaches 1, user k and all larger senders receive infinite
// congestion while smaller senders stay finite — the insulation property
// that drives every uniqueness theorem in the paper.
type FairShare struct{}

// Name implements core.Allocation.
func (FairShare) Name() string { return "fair-share" }

// ascending returns the indices of r sorted by ascending rate (stable).
func ascending(r []core.Rate) []int {
	idx := make([]int, len(r))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return r[idx[a]] < r[idx[b]] })
	return idx
}

// Congestion implements core.Allocation by delegating to CongestionInto
// with transient scratch; the fast path is the single source of the
// arithmetic, which is what makes the two bit-identical.
func (fs FairShare) Congestion(r []core.Rate) []core.Congestion {
	return fs.CongestionInto(nil, make([]float64, len(r)), r)
}

// CongestionInto implements core.AllocationInto.  The arithmetic — relabel,
// prefix accumulation, incremental cost shares — runs in exactly the order
// Congestion historically used, so results are bit-identical.
//
//lint:hotpath
func (FairShare) CongestionInto(ws *core.Workspace, dst []core.Congestion, r []core.Rate) []core.Congestion {
	n := len(r)
	if n == 0 {
		return dst
	}
	idx := ws.Ascending(r)
	prefix := 0.0 // σ_{k−1}
	prevG := 0.0  // g(x_{k−1}), with g(x_0) = 0
	c := 0.0
	for k := 1; k <= n; k++ {
		i := idx[k-1]
		xk := float64(n-k+1)*r[i] + prefix
		gk := mm1.G(xk)
		if math.IsInf(gk, 1) {
			// This and all larger senders are flooded.
			for m := k; m <= n; m++ {
				dst[idx[m-1]] = math.Inf(1)
			}
			return dst
		}
		c += (gk - prevG) / float64(n-k+1)
		dst[i] = c
		prevG = gk
		prefix += r[i]
	}
	return dst
}

// CongestionOf implements core.Allocation.
func (fs FairShare) CongestionOf(r []core.Rate, i int) core.Congestion {
	// Computing user i's share requires the shares of all smaller senders
	// anyway, so delegate to the full evaluation.
	return fs.Congestion(r)[i]
}

// OwnDerivs implements core.OwnDeriver.  In the ascending labeling, user k's
// congestion depends on its own rate only through g(x_k)/(N−k+1) with
// ∂x_k/∂r_k = N−k+1, so
//
//	∂C_k/∂r_k  = g'(x_k)
//	∂²C_k/∂r_k² = (N−k+1)·g''(x_k)
//
// Both formulas are continuous across rate ties.
func (fs FairShare) OwnDerivs(r []core.Rate, i int) (float64, float64) {
	return fs.OwnDerivsInto(nil, r, i)
}

// OwnDerivsInto implements core.WorkspaceOwnDeriver; see OwnDerivs.
//
//lint:hotpath
func (FairShare) OwnDerivsInto(ws *core.Workspace, r []core.Rate, i int) (float64, float64) {
	n := len(r)
	idx := ws.Ascending(r)
	prefix := 0.0
	for k := 1; k <= n; k++ {
		j := idx[k-1]
		if j == i {
			xk := float64(n-k+1)*r[i] + prefix
			return mm1.GPrime(xk), float64(n-k+1) * mm1.GPrime2(xk)
		}
		prefix += r[j]
	}
	return math.NaN(), math.NaN()
}

// Jacobian implements core.Jacobianer.  Writing C_k = Σ_{m≤k}
// (g(x_m) − g(x_{m−1}))/(N−m+1) with ∂x_m/∂r_j = N−m+1 for j = m, 1 for
// j < m, and 0 for j > m (ascending labels), the matrix is lower triangular
// in the ascending order: small variations in r_j affect C_i only when
// r_j ≤ r_i, the paper's partial-insulation structure.
func (fs FairShare) Jacobian(r []core.Rate) [][]float64 {
	n := len(r)
	dst := make([][]float64, n)
	for i := range dst {
		dst[i] = make([]float64, n)
	}
	return fs.JacobianInto(nil, dst, r)
}

// JacobianInto is Jacobian into dst with scratch from ws; see Jacobian.
//
//lint:hotpath
func (FairShare) JacobianInto(ws *core.Workspace, dst [][]float64, r []core.Rate) [][]float64 {
	n := len(r)
	idx := ws.Ascending(r)
	// gp[k] = g'(x_k) for k = 1..n in ascending labels (index k−1).
	gp := ws.VecA(n)
	prefix := 0.0
	for k := 1; k <= n; k++ {
		xk := float64(n-k+1)*r[idx[k-1]] + prefix
		gp[k-1] = mm1.GPrime(xk)
		prefix += r[idx[k-1]]
	}
	for i := range dst {
		row := dst[i]
		for j := range row {
			row[j] = 0
		}
	}
	// dSorted[k][j]: derivative of C_(k) wrt r_(j) in ascending labels.
	for k := 1; k <= n; k++ {
		rowUser := idx[k-1]
		for j := 1; j <= k; j++ {
			colUser := idx[j-1]
			// Sum over m = 1..k of d/dr_j [ (g(x_m) − g(x_{m−1})) / (N−m+1) ].
			// ∂x_m/∂r_j = (N−m+1) if m == j, 1 if m > j, 0 if m < j.
			d := 0.0
			for m := j; m <= k; m++ {
				var dxm float64
				if m == j {
					dxm = float64(n - m + 1)
				} else {
					dxm = 1
				}
				var dxm1 float64 // ∂x_{m−1}/∂r_j
				switch {
				case m-1 < j:
					dxm1 = 0
				case m-1 == j:
					dxm1 = float64(n - (m - 1) + 1)
				default:
					dxm1 = 1
				}
				gm := gp[m-1]
				gm1 := 0.0
				if m >= 2 {
					gm1 = gp[m-2]
				}
				d += (gm*dxm - gm1*dxm1) / float64(n-m+1)
			}
			dst[rowUser][colUser] = d
		}
	}
	return dst
}
