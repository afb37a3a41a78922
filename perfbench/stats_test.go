package main

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

func fill(n int) *outcomes {
	o := &outcomes{}
	for i := 1; i <= n; i++ {
		o.add(float64(i))
	}
	return o
}

// TestTailNeedsTenBeyond pins the percentile rule: a tail percentile
// counts only with at least ten samples beyond it.
func TestTailNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n      int
		label  string
		value  float64
		beyond int
	}{
		{1000, "p99", 990, 10},
		{2000, "p99", 1980, 20},
		{500, "p98", 490, 10},
		{11, "p9.091", 1, 10},
		{10, "max", 10, 0},
		{1, "max", 1, 0},
	}
	for _, tc := range cases {
		q := fill(tc.n).tail()
		if q.Label != tc.label || q.Value != tc.value || q.Beyond != tc.beyond || q.N != tc.n {
			t.Errorf("n=%d: got %+v, want %s=%v with %d beyond", tc.n, q, tc.label, tc.value, tc.beyond)
		}
		if q.Label != "max" && q.Beyond < minBeyond {
			t.Errorf("n=%d: %s has only %d samples beyond", tc.n, q.Label, q.Beyond)
		}
	}
}

// TestFailuresRankAboveCompleted pins that shedding cannot improve a
// latency number: refused operations rank above every completed one.
func TestFailuresRankAboveCompleted(t *testing.T) {
	o := fill(1000)
	if v := o.tail().Value; v != 990 {
		t.Fatalf("baseline p99 = %v", v)
	}
	// Refusing the 15 slowest operations instead of serving them must
	// not lower the percentile: the refusals rank above everything.
	shed := fill(985)
	for range 15 {
		shed.fail()
	}
	if q := shed.tail(); !math.IsInf(q.Value, 1) {
		t.Fatalf("p99 with 15 refusals = %+v, want +Inf", q)
	}
	// Half refused: the median is a refusal.
	half := fill(500)
	for range 500 {
		half.fail()
	}
	if q := half.p50(); q.Value != 500 {
		t.Fatalf("p50 = %+v, want the slowest completed at rank n/2", q)
	}
	half.fail()
	if q := half.p50(); !math.IsInf(q.Value, 1) {
		t.Fatalf("p50 with a refused majority = %+v, want +Inf", q)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatal(m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Fatal(m)
	}
}

// TestOpenLoopTimesFromDue stalls a fake handler on one request and
// checks that the requests due during the stall are charged the wait,
// and that the generator reports how late it sent them.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const step = 10 * time.Millisecond
	const stall = 200 * time.Millisecond
	sched := make([]arrival, 12)
	for k := range sched {
		sched[k].at = time.Duration(k) * step
	}
	var mu sync.Mutex
	sent := make([]time.Time, len(sched))
	start := time.Now()
	lat, late := openLoop(start, sched, 1, func(k int) error {
		mu.Lock()
		sent[k] = time.Now()
		mu.Unlock()
		if k == 0 {
			time.Sleep(stall)
		}
		return nil
	})
	if lat.n() != len(sched) || late.n() != len(sched) {
		t.Fatalf("%d latencies, %d lateness samples for %d requests", lat.n(), late.n(), len(sched))
	}
	// Request j was due at j·step but could only start after the stall:
	// timed from due, it waited at least stall − j·step, so at least k+1
	// requests (0 through k) took stall − k·step or longer.
	s := lat.sorted()
	for k := 1; k < len(sched); k++ {
		floor := float64(stall-time.Duration(k)*step) / 1e6
		if !sent[k].After(start.Add(stall)) {
			t.Fatalf("request %d sent during the stall", k)
		}
		if n := countAtLeast(s, floor); n < k+1 {
			t.Fatalf("only %d latencies ≥ %.0f ms; from-due timing lost the stall", n, floor)
		}
	}
	if l := late.sorted(); l[len(l)-1] < float64(stall-step)/1e6 {
		t.Fatalf("generator lateness %v does not show the stall", l)
	}
}

func countAtLeast(sorted []float64, x float64) int {
	n := 0
	for _, v := range sorted {
		if v >= x {
			n++
		}
	}
	return n
}

// TestOpenLoopCountsFailures checks a refused request is ranked as a
// failure, not dropped.
func TestOpenLoopCountsFailures(t *testing.T) {
	sched := make([]arrival, 20)
	lat, _ := openLoop(time.Now(), sched, 2, func(k int) error {
		if k%4 == 0 {
			return errRefused
		}
		return nil
	})
	if lat.failed != 5 || len(lat.ms) != 15 {
		t.Fatalf("failed=%d completed=%d", lat.failed, len(lat.ms))
	}
}

var errRefused = errors.New("refused")

// TestScheduleIsSeeded pins that the same seed gives the same arrivals
// and that the offered rate is what was asked for.
func TestScheduleIsSeeded(t *testing.T) {
	a := schedule(rand.New(rand.NewSource(3)), 300, 10*time.Second, 384)
	b := schedule(rand.New(rand.NewSource(3)), 300, 10*time.Second, 384)
	if len(a) != len(b) {
		t.Fatal("schedule length differs for one seed")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs", i)
		}
	}
	if len(a) < 2700 || len(a) > 3300 {
		t.Fatalf("%d arrivals in 10 s at 300/s", len(a))
	}
}
