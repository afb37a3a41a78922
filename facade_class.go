package greednet

import (
	"context"

	"greednet/internal/game"
)

// This file extends the public facade with the class-aggregated game
// layer: K utility classes with integer multiplicities standing in for N
// individual users, the O(K)-per-round Nash solver over them, and the
// N → ∞ fluid (heavy-traffic) limit.  See DESIGN.md §13.

// ---- Class-aggregated games -----------------------------------------------

// Class is a group of identical users: a shared utility, a shared
// per-member rate, and an integer multiplicity.
type Class = game.Class

// ClassGame is a canonical (sorted, duplicate-merged) list of classes.
type ClassGame = game.ClassGame

// ErrBadClass reports an invalid class specification.
var ErrBadClass = game.ErrBadClass

// NewClassGame validates, canonicalizes, and merges a class list.
func NewClassGame(classes []Class) (ClassGame, error) { return game.NewClassGame(classes) }

// AggregateClasses groups a per-user profile into a ClassGame; classOf
// maps each user index to its class in the canonical order.  Expand is
// its inverse: Aggregate-then-Expand reproduces the (sorted) profile and
// rates bit-exactly.
func AggregateClasses(us Profile, r []Rate) (cg ClassGame, classOf []int, err error) {
	return game.Aggregate(us, r)
}

// ClassUtilitySpec renders a utility as the deterministic string used to
// decide class membership: equal specs (and bit-equal rates) merge.
func ClassUtilitySpec(u Utility) string { return game.UtilitySpec(u) }

// Workspace owns the scratch buffers of a solve — per-user or class; the
// zero value is ready and is reused allocation-free across solves.
type Workspace = game.Workspace

// NewWorkspace returns an empty solver workspace (the zero value also
// works).
func NewWorkspace() *Workspace { return game.NewWorkspace() }

// SolveNashClass runs best-response iteration on the class-aggregated
// game: one representative per class, each round O(K) for Fair Share.
// At K classes over N = ΣCount users the cost is independent of N, so a
// million-user solve prices like a K-user one.  NashOptions keep their
// SolveNash meanings, with Free read per class; the result's R and C are
// per class, in canonical class order (ClassGame.ExpandVec expands them
// to per-user vectors).
func SolveNashClass(a Allocation, cg ClassGame, opt NashOptions) (NashResult, error) {
	return game.SolveNashClass(a, cg, opt)
}

// SolveNashClassWS is SolveNashClass under a context with a reusable
// workspace; r0 overrides the classes' own starting rates when non-nil.
func SolveNashClassWS(ctx context.Context, ws *Workspace, a Allocation, cg ClassGame, r0 []Rate, opt NashOptions) (NashResult, error) {
	return game.SolveNashClassWS(ctx, ws, a, cg, r0, opt)
}

// SolveNashClassInto is the allocation-free form: results land in the
// caller's rdst/cdst (length K) and the returned result aliases them.
func SolveNashClassInto(ctx context.Context, ws *Workspace, a Allocation, cg ClassGame, r0 []Rate, opt NashOptions, rdst, cdst []float64) (NashResult, error) {
	return game.SolveNashClassInto(ctx, ws, a, cg, r0, opt, rdst, cdst)
}

// ---- Fluid (heavy-traffic) limit -------------------------------------------

// FluidResult reports the N → ∞ equilibrium in scaled units: Y[j] is
// class j's scaled per-user rate ŷ_j = lim N·ρ_j and Chat[j] its scaled
// congestion, in canonical class order.  Divide by N to compare with a
// finite-N solve.
type FluidResult = game.FluidResult

// Fluid-solver domain errors: the limit exists N-free only for linear
// utilities, and only Fair Share and Proportional have a fluid evaluator.
var (
	ErrFluidUtility = game.ErrFluidUtility
	ErrFluidAlloc   = game.ErrFluidAlloc
)

// SolveNashFluid solves the N → ∞ fluid equilibrium of a class game
// directly in scaled units — the heavy-traffic operating point a large
// finite-N solve converges to.  Class counts set the population shares;
// the absolute N only matters when unscaling.
func SolveNashFluid(ctx context.Context, a Allocation, cg ClassGame, opt NashOptions) (FluidResult, error) {
	return game.SolveNashFluid(ctx, a, cg, opt)
}
