package selfish

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"greednet/internal/alloc"
	"greednet/internal/core"
	"greednet/internal/des"
	"greednet/internal/game"
	"greednet/internal/randdist"
	"greednet/internal/utility"
)

func TestClosedLoopFindsFairShareNash(t *testing.T) {
	// Blind stochastic hill climbers over the simulator must settle near
	// the analytic Fair Share Nash equilibrium.
	n := 3
	gamma := 0.25
	us := utility.Identical(utility.NewLinear(1, gamma), n)
	want := (1 - math.Sqrt(gamma)) / float64(n)
	res := Run(func() des.Discipline { return &des.FairShareSplitter{} },
		us, []float64{0.05, 0.3, 0.15}, Options{Seed: 1})
	settled := res.TailAverage(10)
	for i, v := range settled {
		if math.Abs(v-want) > 0.03 {
			t.Errorf("user %d settled at %v, analytic Nash %v", i, v, want)
		}
	}
	if res.Epochs == 0 || len(res.Trajectory) != 61 {
		t.Errorf("unexpected bookkeeping: epochs=%d rounds=%d", res.Epochs, len(res.Trajectory))
	}
}

func TestClosedLoopFindsFIFONash(t *testing.T) {
	// Premise 2 cuts both ways: under FIFO the blind optimizers land on
	// the (inefficient) proportional Nash equilibrium.
	n := 2
	gamma := 0.25
	us := utility.Identical(utility.NewLinear(1, gamma), n)
	nash, err := game.SolveNash(alloc.Proportional{}, us, []float64{0.1, 0.1}, game.NashOptions{})
	if err != nil || !nash.Converged {
		t.Fatal("analytic solve failed")
	}
	res := Run(func() des.Discipline { return &des.FIFO{} },
		us, []float64{0.1, 0.4}, Options{Seed: 2})
	settled := res.TailAverage(10)
	for i, v := range settled {
		if math.Abs(v-nash.R[i]) > 0.04 {
			t.Errorf("user %d settled at %v, analytic FIFO Nash %v", i, v, nash.R[i])
		}
	}
}

func TestTailAverage(t *testing.T) {
	r := Result{Trajectory: [][]float64{{0, 0}, {1, 2}, {3, 4}}}
	got := r.TailAverage(2)
	if got[0] != 2 || got[1] != 3 {
		t.Errorf("TailAverage = %v", got)
	}
	all := r.TailAverage(0)
	if math.Abs(all[0]-4.0/3) > 1e-12 {
		t.Errorf("TailAverage(0) = %v", all)
	}
}

func TestMeltdownRetreat(t *testing.T) {
	// Starting at meltdown rates, users must retreat into the stable
	// region rather than sticking at −Inf payoffs.
	us := utility.Identical(utility.NewLinear(1, 0.25), 2)
	res := Run(func() des.Discipline { return &des.FIFO{} },
		us, []float64{0.6, 0.6}, Options{Seed: 3, Rounds: 30})
	total := res.R[0] + res.R[1]
	if total >= 0.99 {
		t.Errorf("users failed to retreat from meltdown: %v", res.R)
	}
}

// sequentialRun is the closed loop with its two probe epochs measured
// one after the other on the calling goroutine: the reference RunCtx's
// concurrent probes must reproduce bit for bit.
func sequentialRun(factory DisciplineFactory, us core.Profile, r0 []core.Rate, opt Options) Result {
	opt = opt.withDefaults()
	value := func(r []core.Rate, i int, epoch float64, seed int64) float64 {
		total := 0.0
		for _, v := range r {
			total += v
		}
		if total >= 0.99 {
			return math.Inf(-1)
		}
		res, err := des.Run(des.Config{Rates: r, Discipline: factory(), Horizon: epoch, Seed: seed})
		if err != nil {
			return math.Inf(-1)
		}
		return us[i].Value(r[i], res.AvgQueue[i])
	}
	r := append([]float64(nil), r0...)
	res := Result{Trajectory: [][]float64{append([]float64(nil), r...)}}
	rng := randdist.NewRand(opt.Seed)
	for round := 1; round <= opt.Rounds; round++ {
		decay := 1 / math.Sqrt(float64(round))
		delta, step := opt.Delta0*decay, opt.Step0*decay
		epoch := opt.Epoch * (1 + float64(round)/8)
		for i := range r {
			up := core.Clamp(r[i]+delta, opt.Lo, opt.Hi)
			dn := core.Clamp(r[i]-delta, opt.Lo, opt.Hi)
			seed := rng.Int63()
			vUp := value(core.WithRate(r, i, up), i, epoch, seed)
			vDn := value(core.WithRate(r, i, dn), i, epoch, seed)
			res.Epochs += 2
			switch {
			case math.IsInf(vUp, -1) && math.IsInf(vDn, -1):
				r[i] = core.Clamp(r[i]-step, opt.Lo, opt.Hi)
			case vUp > vDn:
				r[i] = core.Clamp(r[i]+step, opt.Lo, opt.Hi)
			case vDn > vUp:
				r[i] = core.Clamp(r[i]-step, opt.Lo, opt.Hi)
			}
		}
		res.Trajectory = append(res.Trajectory, append([]float64(nil), r...))
	}
	res.R = r
	return res
}

// TestRunCtxMatchesSequentialBits holds RunCtx's concurrent probe pairs
// to the sequential reference bit for bit — R, every Trajectory entry and
// Epochs — at GOMAXPROCS 1 (probes inline) and 4, from a stable start and
// from a meltdown start that exercises the retreat branch.
func TestRunCtxMatchesSequentialBits(t *testing.T) {
	us := utility.Identical(utility.NewLinear(1, 0.25), 2)
	opt := Options{Seed: 5, Rounds: 12, Epoch: 1000}
	cases := []struct {
		name    string
		factory DisciplineFactory
		r0      []float64
	}{
		{"fair-share", func() des.Discipline { return &des.FairShareSplitter{} }, []float64{0.05, 0.3}},
		{"fifo-meltdown", func() des.Discipline { return &des.FIFO{} }, []float64{0.6, 0.6}},
	}
	for _, tc := range cases {
		want := sequentialRun(tc.factory, us, tc.r0, opt)
		for _, procs := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(procs)
			got, err := RunCtx(context.Background(), tc.factory, us, tc.r0, opt)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatalf("%s at GOMAXPROCS %d: %v", tc.name, procs, err)
			}
			if got.Epochs != want.Epochs || !sameBits(got.R, want.R) || len(got.Trajectory) != len(want.Trajectory) {
				t.Fatalf("%s at GOMAXPROCS %d: R %v epochs %d, want R %v epochs %d",
					tc.name, procs, got.R, got.Epochs, want.R, want.Epochs)
			}
			for k := range want.Trajectory {
				if !sameBits(got.Trajectory[k], want.Trajectory[k]) {
					t.Fatalf("%s at GOMAXPROCS %d: round %d is %v, want %v",
						tc.name, procs, k, got.Trajectory[k], want.Trajectory[k])
				}
			}
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestRunCtxCanceledEpochIsNotMeltdown cancels the context from inside
// the factory, so the epoch being built runs under a canceled context:
// RunCtx must return the typed error rather than score that epoch −Inf
// and keep climbing.
func TestRunCtxCanceledEpochIsNotMeltdown(t *testing.T) {
	us := utility.Identical(utility.NewLinear(1, 0.25), 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var built atomic.Int64
	factory := func() des.Discipline {
		if built.Add(1) == 5 {
			cancel()
		}
		return &des.FIFO{}
	}
	res, err := RunCtx(ctx, factory, us, []float64{0.1, 0.2}, Options{Seed: 1, Rounds: 10, Epoch: 500})
	if !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("err = %v, want core.ErrCanceled", err)
	}
	if res.R != nil || res.Epochs != 0 {
		t.Errorf("canceled run returned a result: %+v", res)
	}
	if n := built.Load(); n > 6 {
		t.Errorf("%d epochs built after cancellation at the 5th; the loop kept climbing", n)
	}
}
