package game

import (
	"greednet/internal/core"
)

// Workspace is the solver-owned scratch behind every WS entry point —
// BestResponseWS, BestResponseNewtonWS, SolveNashWS and the class solves
// SolveNashClassWS/SolveNashClassInto.  One workspace amortizes every
// per-call allocation of a solve — the Nash iterate buffers, the player
// multiplicities, the Fair Share deviator evaluator and the allocation
// layer's sort permutations, and (for disciplines without class
// arithmetic) the r|ⁱx probe vector and congestion destination — so a
// warm best-response search, and a warm class solve at any N, performs
// zero heap allocations.  Buffers grow to the largest player count seen
// and are reused thereafter.
//
// A nil *Workspace means "allocate transient scratch"; the plain entry
// points (BestResponse, SolveNash, …) delegate with nil, which keeps one
// arithmetic path and makes WS results bit-identical by construction.
// Workspaces are not safe for concurrent use: parallel drivers own one per
// solve (MultiStartNash) or per worker.
type Workspace struct {
	iter []float64 // Nash fixed-point iterate, one entry per player
	next []float64 // Jacobi round buffer
	free []bool    // the all-free default of NashOptions.Free
	// ones holds unit multiplicities: a per-user game is the class game
	// whose every class has one member.
	ones []int
	// counts and us are a class solve's multiplicities and utilities.
	counts []int
	us     core.Profile
	rr     []float64 // the r|ⁱx probe vector of a generic best-response search
	cong   []float64 // congestion destination for AllocationInto
	aws    core.Workspace
	fs     fairShareBR
	eval   brEval
	game   finiteGame
}

// NewWorkspace returns an empty workspace; buffers grow on first use and
// are reused thereafter.
func NewWorkspace() *Workspace { return &Workspace{} }

// growFloats resizes buf to n, reusing capacity when possible.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

func (w *Workspace) rates(n int) []float64 {
	w.rr = growFloats(w.rr, n)
	return w.rr
}

func (w *Workspace) congestion(n int) []float64 {
	w.cong = growFloats(w.cong, n)
	return w.cong
}

// units returns n unit multiplicities.
func (w *Workspace) units(n int) []int {
	if cap(w.ones) < n {
		w.ones = make([]int, n)
		for j := range w.ones {
			w.ones[j] = 1
		}
	}
	return w.ones[:n]
}

// allFree returns an n-player mask with every player free.
func (w *Workspace) allFree(n int) []bool {
	if cap(w.free) < n {
		w.free = make([]bool, n)
		for j := range w.free {
			w.free[j] = true
		}
	}
	return w.free[:n]
}
