// Package solver is the dependent half of the interprocedural fixture:
// every finding below but Spawn's needs alloc's facts — cross-package
// allocation summaries and Ctx-variant records — so the golden file
// proves the dependency-ordered fact flow end to end.
package solver

import (
	"context"

	"goldenfixture/alloc"
)

// HotScale stays allocation-free through the cross-package call: no
// finding, because alloc.Scale's summary says it is clean.
//
//lint:hotpath
func HotScale(x float64) float64 {
	return alloc.Scale(x)
}

// HotGrow calls a cross-package allocator: an allocfree finding at the
// call site, witnessed by alloc's exported summary.
//
//lint:hotpath
func HotGrow(n int) []float64 {
	return alloc.Grow(n)
}

// Relax holds a context but hands the work to the variant that ignores
// it: a ctxflow finding steering toward alloc.RunCtx.
func Relax(ctx context.Context, xs []float64) float64 {
	return alloc.Run(xs)
}

// Iterate does per-round work through a function call and never polls
// its context on the back-edge: a ctxflow finding.
func Iterate(ctx context.Context, xs []float64, rounds int) float64 {
	s := 0.0
	for k := 0; k < rounds; k++ {
		s += alloc.Scale(xs[k%len(xs)])
	}
	return s
}

// Spawn starts an unannotated goroutine: a fanout finding.
func Spawn(done chan struct{}) {
	go func() {
		close(done)
	}()
}
