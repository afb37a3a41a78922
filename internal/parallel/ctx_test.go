package parallel

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"greednet/internal/core"
)

// TestMapOrderedCtxUncanceledMatchesErr pins the uncanceled contract:
// with a live (or background) context every task runs and the task error
// comes back, whatever the worker count.
func TestMapOrderedCtxUncanceledMatchesErr(t *testing.T) {
	boom := errors.New("boom")
	fn := func(i int) error {
		if i == 3 || i == 7 {
			return boom
		}
		return nil
	}
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		err := MapOrderedCtx(context.Background(), workers, 10, func(i int) error {
			ran.Add(1)
			return fn(i)
		})
		if !errors.Is(err, boom) {
			t.Errorf("workers=%d: got %v, want the task error", workers, err)
		}
		if ran.Load() != 10 {
			t.Errorf("workers=%d: ran %d tasks, want all 10", workers, ran.Load())
		}
	}
}

// TestMapOrderedCtxCancelMidFan cancels the context from inside an early
// task and checks (a) the pool stops claiming new indices, (b) the typed
// core.ErrCanceled is returned rather than any task error — the only
// deterministic report once the executed set depends on scheduling.
func TestMapOrderedCtxCancelMidFan(t *testing.T) {
	// Every other task holds its worker until the cancellation, so no
	// worker can drain the fan while the one holding task 0 is descheduled
	// (on a loaded host the others once ran all n before it canceled).
	// guard bounds the wait should task 0 never run.
	guard, stopGuard := context.WithTimeout(context.Background(), 10*time.Second)
	defer stopGuard()
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		const n = 1000
		err := MapOrderedCtx(ctx, workers, n, func(i int) error {
			ran.Add(1)
			if i == 0 {
				cancel()
			} else {
				select {
				case <-ctx.Done():
				case <-guard.Done():
				}
			}
			return errors.New("task error that cancellation must mask")
		})
		if !errors.Is(err, core.ErrCanceled) {
			t.Errorf("workers=%d: got %v, want core.ErrCanceled", workers, err)
		}
		if errors.Is(err, core.ErrDeadline) {
			t.Errorf("workers=%d: plain cancellation must not read as a deadline", workers)
		}
		// Task 0 cancels; only tasks claimed before the cancellation was
		// observed may run.  No task finishes before it, so each worker
		// holds at most one when the flag flips: at most w run.
		if got := ran.Load(); got > int64(workers) {
			t.Errorf("workers=%d: pool kept claiming after cancel (%d/%d ran)", workers, got, n)
		}
		cancel()
	}
}

// TestMapOrderedCtxDeadline runs tasks that outlive a short deadline and
// checks the typed core.ErrDeadline surfaces.
func TestMapOrderedCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	var ran atomic.Int64
	const n = 10000
	err := MapOrderedCtx(ctx, 2, n, func(i int) error {
		ran.Add(1)
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, core.ErrDeadline) {
		t.Fatalf("got %v, want core.ErrDeadline", err)
	}
	if ran.Load() >= n {
		t.Errorf("pool claimed every task despite the deadline")
	}
}

// TestMapOrderedCtxEmpty keeps the n == 0 path consistent: a canceled
// context still reports, a live one still returns nil.
func TestMapOrderedCtxEmpty(t *testing.T) {
	if err := MapOrderedCtx(context.Background(), 4, 0, func(int) error { return nil }); err != nil {
		t.Errorf("empty fan on live ctx: got %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := MapOrderedCtx(ctx, 4, 0, func(int) error { return nil }); !errors.Is(err, core.ErrCanceled) {
		t.Errorf("empty fan on canceled ctx: got %v, want core.ErrCanceled", err)
	}
}
