package des

import (
	"math"
	"testing"

	"greednet/internal/mm1"
	"greednet/internal/randdist"
)

func runSched(t *testing.T, cfg SchedConfig) Result {
	t.Helper()
	res, err := RunSched(cfg)
	if err != nil {
		t.Fatalf("RunSched: %v", err)
	}
	return res
}

func TestFCFSSchedMatchesPK(t *testing.T) {
	// The FCFS scheduler must reproduce the P-K mean for any service law.
	eachGenerated(t, 21, func(t *testing.T, rates []float64, load, cv2, horizon float64, seed int64) {
		res := runSched(t, SchedConfig{
			Rates:   rates,
			Service: randdist.FromCV2(cv2),
			Sched:   &FCFSSched{},
			Horizon: horizon,
			Seed:    seed,
		})
		want := mm1.MG1{CV2: cv2}.L(load)
		if math.Abs(res.TotalAvgQueue-want) > 0.06*want {
			t.Errorf("total %v, want %v", res.TotalAvgQueue, want)
		}
	})
}

func TestFQTotalQueueConservedDeterministic(t *testing.T) {
	// The Kleinrock conservation law covers non-preemptive work-conserving
	// disciplines that ignore service times.  FQ's finish tags DO use
	// packet lengths, so conservation is only guaranteed when lengths are
	// constant — where it must match the M/D/1 P-K value exactly.
	rates := []float64{0.1, 0.2, 0.4}
	res := runSched(t, SchedConfig{
		Rates:   rates,
		Service: randdist.Deterministic{},
		Sched:   &FQSched{},
		Horizon: 4e5,
		Seed:    22,
	})
	want := mm1.MD1().L(0.7)
	if math.Abs(res.TotalAvgQueue-want) > 0.06*want {
		t.Errorf("FQ total %v, want conserved %v", res.TotalAvgQueue, want)
	}
}

func TestFQShortPacketBiasWithExponentialLengths(t *testing.T) {
	// With variable lengths the finish tags mildly favor short packets
	// (an SJF flavor), so FQ's mean total number in system falls at or
	// below the FIFO/P-K value — never above.
	rates := []float64{0.1, 0.2, 0.4}
	res := runSched(t, SchedConfig{
		Rates:   rates,
		Service: randdist.Exponential{},
		Sched:   &FQSched{},
		Horizon: 4e5,
		Seed:    22,
	})
	pk := mm1.MG1{CV2: 1}.L(0.7)
	if res.TotalAvgQueue > 1.03*pk {
		t.Errorf("FQ total %v should not exceed P-K %v", res.TotalAvgQueue, pk)
	}
	if res.TotalAvgQueue < 0.7*pk {
		t.Errorf("FQ total %v implausibly far below P-K %v", res.TotalAvgQueue, pk)
	}
}

func TestFQSymmetricFlows(t *testing.T) {
	// Equal-rate flows must receive equal treatment under FQ.
	rates := []float64{0.2, 0.2, 0.2}
	res := runSched(t, SchedConfig{
		Rates:   rates,
		Sched:   &FQSched{},
		Horizon: 4e5,
		Seed:    23,
	})
	for i := 1; i < 3; i++ {
		if math.Abs(res.AvgQueue[i]-res.AvgQueue[0]) > 6*(res.QueueCI95[i]+res.QueueCI95[0]) {
			t.Errorf("asymmetric FQ queues: %v", res.AvgQueue)
		}
	}
}

func TestFQInsulatesLightFlow(t *testing.T) {
	// §5.2's claim: under FQ a light flow's delay is far below its FIFO
	// delay when a heavy flow dominates, and near the Fair Share ideal's
	// delay ballpark.
	rates := []float64{0.05, 0.7}
	fq := runSched(t, SchedConfig{Rates: rates, Sched: &FQSched{}, Horizon: 4e5, Seed: 24})
	ff := runSched(t, SchedConfig{Rates: rates, Sched: &FCFSSched{}, Horizon: 4e5, Seed: 24})
	if fq.AvgDelay[0] > 0.7*ff.AvgDelay[0] {
		t.Errorf("FQ should cut the light flow's delay: FQ %v vs FIFO %v",
			fq.AvgDelay[0], ff.AvgDelay[0])
	}
	// The heavy flow absorbs the backlog it creates.
	if fq.AvgQueue[1] <= ff.AvgQueue[1] {
		t.Errorf("heavy flow should carry more under FQ: %v vs %v",
			fq.AvgQueue[1], ff.AvgQueue[1])
	}
}

func TestFQProtectionAgainstFlooding(t *testing.T) {
	// A near-saturating attacker cannot drag a light flow's delay far up
	// under FQ; under FIFO the delay explodes with load.
	light := 0.05
	fqLowLoad := runSched(t, SchedConfig{Rates: []float64{light, 0.3}, Sched: &FQSched{}, Horizon: 3e5, Seed: 25})
	fqHighLoad := runSched(t, SchedConfig{Rates: []float64{light, 0.9}, Sched: &FQSched{}, Horizon: 3e5, Seed: 25})
	ffHighLoad := runSched(t, SchedConfig{Rates: []float64{light, 0.9}, Sched: &FCFSSched{}, Horizon: 3e5, Seed: 25})
	if fqHighLoad.AvgDelay[0] > 4*fqLowLoad.AvgDelay[0] {
		t.Errorf("FQ light-flow delay should be nearly load-insensitive: %v vs %v",
			fqHighLoad.AvgDelay[0], fqLowLoad.AvgDelay[0])
	}
	if ffHighLoad.AvgDelay[0] < 3*fqHighLoad.AvgDelay[0] {
		t.Errorf("FIFO should hurt the light flow far more: fifo %v vs fq %v",
			ffHighLoad.AvgDelay[0], fqHighLoad.AvgDelay[0])
	}
}

func TestRunSchedRejectsBadConfig(t *testing.T) {
	if _, err := RunSched(SchedConfig{}); err == nil {
		t.Error("empty config should error")
	}
	if _, err := RunSched(SchedConfig{Rates: []float64{0.6, 0.6}}); err == nil {
		t.Error("overload should error")
	}
}

func TestRunSchedDeterministic(t *testing.T) {
	cfg := SchedConfig{Rates: []float64{0.2, 0.3}, Sched: &FQSched{}, Horizon: 1e4, Seed: 9}
	a := runSched(t, cfg)
	cfg.Sched = &FQSched{}
	b := runSched(t, cfg)
	for i := range a.AvgQueue {
		if a.AvgQueue[i] != b.AvgQueue[i] {
			t.Fatal("same seed must reproduce")
		}
	}
}

func TestFQSchedTagMonotonicity(t *testing.T) {
	// Within one flow, finish tags must be nondecreasing.
	var f FQSched
	f.Reset([]float64{1, 1})
	prev := -1.0
	for k := 0; k < 20; k++ {
		p := &gpacket{user: 0, remaining: 0.5}
		f.Enqueue(p, float64(k)*0.1)
		it := f.h[0]
		_ = it
		if f.lastFinish[0] < prev {
			t.Fatalf("finish tags regressed at packet %d", k)
		}
		prev = f.lastFinish[0]
	}
	if f.Len() != 20 {
		t.Errorf("len %d", f.Len())
	}
}
