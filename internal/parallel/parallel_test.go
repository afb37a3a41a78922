package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestMapOrderedAdversarialCompletion makes later tasks finish first
// (each sleeps inversely to its index) and checks every result still
// lands at its own index and the call joins all tasks before returning.
func TestMapOrderedAdversarialCompletion(t *testing.T) {
	const n = 16
	results := make([]int, n)
	var done atomic.Int64
	_ = MapOrderedCtx(context.Background(), 8, n, func(i int) error {
		time.Sleep(time.Duration(n-i) * time.Millisecond)
		results[i] = i * i
		done.Add(1)
		return nil
	})
	if got := done.Load(); got != n {
		t.Fatalf("MapOrderedCtx returned before all tasks finished: %d/%d", got, n)
	}
	for i, v := range results {
		if v != i*i {
			t.Errorf("results[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// TestMapOrderedErrLowestIndexWins checks the returned error is the
// lowest-index failure for every worker count, and that an error does
// not cancel the remaining tasks.
func TestMapOrderedErrLowestIndexWins(t *testing.T) {
	const n = 12
	for _, workers := range []int{1, 2, 4, 32} {
		var ran atomic.Int64
		err := MapOrderedCtx(context.Background(), workers, n, func(i int) error {
			// Fail at several indices, the later ones completing sooner.
			switch i {
			case 3:
				time.Sleep(20 * time.Millisecond)
				ran.Add(1)
				return errors.New("error at 3")
			case 7, 10:
				ran.Add(1)
				return fmt.Errorf("error at %d", i)
			}
			ran.Add(1)
			return nil
		})
		if err == nil || err.Error() != "error at 3" {
			t.Errorf("workers=%d: got %v, want the index-3 error", workers, err)
		}
		if got := ran.Load(); got != n {
			t.Errorf("workers=%d: only %d/%d tasks ran after an error", workers, got, n)
		}
	}
}

func TestMapOrderedErrNilOnSuccess(t *testing.T) {
	if err := MapOrderedCtx(context.Background(), 4, 9, func(int) error { return nil }); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestWorkersClamp pins the clamp: non-positive → GOMAXPROCS, more
// workers than tasks → n, and never below 1.
func TestWorkersClamp(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	cases := []struct{ workers, n, want int }{
		{0, 1 << 20, procs},
		{-5, 1 << 20, procs},
		{100, 5, 5},
		{3, 5, 3},
		{1, 5, 1},
		{4, 0, 1},
	}
	for _, c := range cases {
		if got := Workers(c.workers, c.n); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.workers, c.n, got, c.want)
		}
	}
}

func TestMapOrderedZeroTasks(t *testing.T) {
	called := false
	_ = MapOrderedCtx(context.Background(), 4, 0, func(int) error { called = true; return nil })
	if called {
		t.Error("fn called for n=0")
	}
	if err := MapOrderedCtx(context.Background(), 4, -3, func(int) error { return errors.New("x") }); err != nil {
		t.Errorf("negative n should be a no-op, got %v", err)
	}
}

// TestPanicContainment checks a panicking task neither kills its worker
// nor vanishes: the remaining tasks run, and the lowest-index panic is
// re-raised on the caller with the task index attached.
func TestPanicContainment(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("workers=%d: task panic was swallowed", workers)
					return
				}
				msg, ok := r.(string)
				if !ok || !strings.Contains(msg, "task 2 panicked: boom 2") {
					t.Errorf("workers=%d: re-panic %v should name task 2", workers, r)
				}
			}()
			_ = MapOrderedCtx(context.Background(), workers, 8, func(i int) error {
				ran.Add(1)
				if i == 2 || i == 5 {
					panic(fmt.Sprintf("boom %d", i))
				}
				return nil
			})
		}()
		if got := ran.Load(); got != 8 {
			t.Errorf("workers=%d: only %d/8 tasks ran despite containment", workers, got)
		}
	}
}
