package core

import (
	"math"
	"sort"
)

// Workspace is reusable scratch memory for the allocation fast paths.  A
// solver owns one workspace, threads it through every CongestionInto /
// OwnDerivsInto / JacobianInto call it makes, and thereby amortizes every
// sort permutation and intermediate vector across the whole solve: after
// the first call on a given problem size, the hot path performs zero heap
// allocations.
//
// A nil *Workspace is valid everywhere one is accepted and means "allocate
// transient scratch": the slow paths delegate to the fast paths with a nil
// workspace, which is what makes the two bit-identical by construction.
//
// Workspaces are not safe for concurrent use; parallel solvers own one
// workspace per worker.  Slices returned by workspace methods (and the dst
// buffers passed alongside them) are invalidated by the next call that
// touches the same scratch — callers must copy anything they keep.
type Workspace struct {
	sorter argSorter
	vecA   []float64
	vecB   []float64
}

// argSorter is the workspace-resident sort.Interface behind Ascending.
// Keeping it a struct field (rather than building a closure per call) lets
// sort.Stable receive an interface without allocating: the *argSorter
// pointer fits the interface word directly.  Between calls idx keeps the
// last permutation Ascending returned, which the next call repairs.
type argSorter struct {
	keys []float64
	idx  []int
}

func (s *argSorter) Len() int           { return len(s.idx) }
func (s *argSorter) Less(a, b int) bool { return s.keys[s.idx[a]] < s.keys[s.idx[b]] }
func (s *argSorter) Swap(a, b int)      { s.idx[a], s.idx[b] = s.idx[b], s.idx[a] }

// repairBudget caps the insertion pass that repairs the previous
// permutation at repairBudget·n element moves; past it the keys are too
// far from the last order to beat a sort from scratch.
const repairBudget = 2

// Ascending returns the permutation that stably sorts keys ascending —
// idx[k] is the original index of the k-th smallest key, ties in original
// order.  The stable permutation of a given key vector is unique, so the
// result is bit-identical to a sort.SliceStable argsort of the same keys
// and does not depend on earlier calls.  The cost does: when keys has the
// same length as the previous call's, Ascending repairs the previous
// permutation with one insertion pass under the (key, index) order, which
// is the stable order whenever no key is NaN.  A Gauss–Seidel round, whose
// consecutive best responses see key vectors that differ in one entry,
// thus pays O(n) per call instead of O(n log n).  A NaN key (whose
// "stable order" is whatever sort.Stable's merges make of it), a length
// change, or a pass past repairBudget·n moves sorts from scratch.
//
// The returned slice is workspace-owned scratch, valid until the next
// Ascending call; callers must not modify it, since the next call starts
// from it.  keys is read but never retained.
func (w *Workspace) Ascending(keys []float64) []int {
	if w == nil {
		w = new(Workspace) //lint:allow allocfree nil-workspace transient-scratch fallback; hot callers pass a real workspace (pinned by the allocs_per_op gate)
	}
	n := len(keys)
	idx := w.sorter.idx
	if len(idx) == n && repair(keys, idx) {
		return idx
	}
	if cap(idx) < n {
		idx = make([]int, n)
	}
	idx = idx[:n]
	for i := range idx {
		idx[i] = i
	}
	w.sorter.idx = idx
	w.sorter.keys = keys
	sort.Stable(&w.sorter)
	w.sorter.keys = nil // do not retain the caller's slice
	return idx
}

// repair re-sorts the permutation idx of keys in place by one insertion
// pass under the (key, index) order and reports whether it finished.  It
// gives up on a NaN key or once the pass has moved more than
// repairBudget·len(idx) elements, leaving idx some permutation of its
// entries for the caller to overwrite.
func repair(keys []float64, idx []int) bool {
	budget := repairBudget * len(idx)
	for i, v := range idx {
		kv := keys[v]
		if math.IsNaN(kv) {
			return false
		}
		// Shift right every earlier entry that v precedes: its key is
		// larger, or equal (neither is less; no key so far is NaN) with a
		// larger index.
		j := i
		for ; j > 0; j-- {
			u := idx[j-1]
			if ku := keys[u]; ku < kv || (!(kv < ku) && u < v) {
				break
			}
			idx[j] = idx[j-1]
		}
		idx[j] = v
		if budget -= i - j; budget < 0 {
			return false
		}
	}
	return true
}

// VecA returns the workspace's first float64 scratch vector, resized to n.
// Contents are unspecified (callers overwrite).  Valid until the next VecA
// call on the same workspace.
func (w *Workspace) VecA(n int) []float64 {
	if w == nil {
		return make([]float64, n) //lint:allow allocfree nil-workspace transient-scratch fallback; hot callers pass a real workspace (pinned by the allocs_per_op gate)
	}
	if cap(w.vecA) < n {
		w.vecA = make([]float64, n)
	}
	w.vecA = w.vecA[:n]
	return w.vecA
}

// VecB is a second, independent scratch vector for callers that need two
// (e.g. Blend, which evaluates both endpoint allocations).
func (w *Workspace) VecB(n int) []float64 {
	if w == nil {
		return make([]float64, n)
	}
	if cap(w.vecB) < n {
		w.vecB = make([]float64, n)
	}
	w.vecB = w.vecB[:n]
	return w.vecB
}

// AllocationInto is the zero-allocation fast path of an Allocation.  The
// contract mirrors Congestion exactly — CongestionInto(ws, dst, r) writes
// C(r) into dst and returns it, producing bit-identical values to
// Congestion(r) for every input (the slow path is required to delegate to
// the fast path, so there is a single source of arithmetic truth).
//
// dst must have len(r) elements and must not alias r or the workspace's
// own scratch.  ws may be nil (transient scratch is allocated).
type AllocationInto interface {
	Allocation
	// CongestionInto computes C(r) into dst and returns dst.
	CongestionInto(ws *Workspace, dst []Congestion, r []Rate) []Congestion
}

// WorkspaceOwnDeriver is the scratch-reusing analogue of OwnDeriver,
// bit-identical to OwnDerivs by the same delegation contract.
type WorkspaceOwnDeriver interface {
	// OwnDerivsInto returns ∂C_i/∂r_i and ∂²C_i/∂r_i² at r, using ws for
	// any intermediate vectors.
	OwnDerivsInto(ws *Workspace, r []Rate, i int) (d1, d2 float64)
}
