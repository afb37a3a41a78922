// Package parallel is the repo's fan-out primitive: a fixed-size worker
// pool executing n indexed tasks with order-preserving semantics.  Results
// land at their task's index and errors are reported lowest-index-first,
// so for deterministic task functions every observable output — returned
// error included — is identical for any worker count.  That invariant is
// what lets the experiment suite, the multi-start Nash solver, the figure
// sweeps, DES replications and the DES experiments' independent
// simulations fan out while staying byte-reproducible.
//
// The package is stdlib-only and contains the tree's only `go` statements
// outside tests and the audited watchdogs (the greedlint fanout analyzer
// enforces that).  Workers write exclusively through per-index slice
// slots and join on a WaitGroup; `go test -race` checks that they do.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"greednet/internal/core"
)

// Workers clamps a requested worker count to [1, n]: non-positive
// requests mean "use the hardware" (runtime.GOMAXPROCS(0)), and a pool
// never holds more workers than tasks.
func Workers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// MapOrderedCtx runs fn(0), …, fn(n-1) on a pool of workers and returns
// once every claimed call has finished.  Tasks are claimed in index order
// but may complete in any order; callers record results by index (into
// preallocated slots) so the aggregate is independent of scheduling.  An
// error does not cancel the remaining tasks (matching sequential
// collect-then-report semantics): the error of the lowest-index failing
// task is returned, deterministic whatever the completion order.  A
// panicking task does not take down its worker: the panic is contained,
// the remaining tasks still run, and the lowest-index panic is re-raised
// on the calling goroutine with the task index and original stack.
//
// Workers stop claiming new indices once ctx is done, while tasks already
// claimed run to completion (a task is never interrupted mid-flight —
// cooperative tasks observe the same ctx themselves).  A canceled run
// always returns the typed core.ErrCanceled / core.ErrDeadline — never a
// task error, since which tasks got to run (and hence which errors exist)
// depends on scheduling.  Contained task panics still re-raise first: a
// panic is the caller's bug surfacing, cancellation or not.
func MapOrderedCtx(ctx context.Context, workers, n int, fn func(i int) error) error {
	return mustRun(ctx, workers, n, fn)
}

// contained is one captured task panic.
type contained struct {
	val   interface{}
	stack []byte
}

// runTask executes one task, converting a panic into a contained record
// so a worker survives to claim its next index.
func runTask(fn func(int) error, i int, errs []error, panics []*contained) {
	defer func() {
		if r := recover(); r != nil {
			panics[i] = &contained{val: r, stack: debug.Stack()}
		}
	}()
	errs[i] = fn(i)
}

// mustRun drives the pool and re-raises the lowest-index contained panic
// (the "must" prefix marks the deliberate re-panic: a task panic is the
// caller's bug surfacing, not a pool failure to downgrade into an error).
// A nil ctx means "never cancel"; with a live ctx, workers poll it before
// claiming each index and stop claiming once it fires.
func mustRun(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return core.CtxErr(ctx)
	}
	errs := make([]error, n)
	panics := make([]*contained, n)
	w := Workers(workers, n)
	if w == 1 {
		// Degenerate pool: run on the calling goroutine, same containment
		// and the same claim-time cancellation point.
		for i := 0; i < n; i++ {
			if core.CtxErr(ctx) != nil {
				break
			}
			runTask(fn, i, errs, panics)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for k := 0; k < w; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if core.CtxErr(ctx) != nil {
						return
					}
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					runTask(fn, i, errs, panics)
				}
			}()
		}
		wg.Wait()
	}
	//lint:allow ctxflow O(tasks) failure scan after the pool drained; Sprintf runs only on the re-panic path
	for i, p := range panics {
		if p != nil {
			panic(fmt.Sprintf("parallel: task %d panicked: %v\n%s", i, p.val, p.stack))
		}
	}
	if err := core.CtxErr(ctx); err != nil {
		// Canceled: the set of executed tasks is scheduling-dependent, so
		// the typed ctx error is the only deterministic report.
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
