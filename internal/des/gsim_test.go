package des

import (
	"fmt"
	"math"
	"testing"

	"greednet/internal/alloc"
	"greednet/internal/mm1"
	"greednet/internal/randdist"
)

func runG(t *testing.T, cfg GConfig) Result {
	t.Helper()
	res, err := RunG(cfg)
	if err != nil {
		t.Fatalf("RunG: %v", err)
	}
	return res
}

// serviceCV2s are the service shapes the analytic tests cover:
// deterministic, exponential and gamma with cv² = 2.
var serviceCV2s = []float64{0, 1, 2}

// generatedLoads draws count seeded rate vectors: K = 2–6 sources with
// weights in [0.2, 1.2), scaled to a total load in [0.3, 0.85].
func generatedLoads(seed int64, count int) [][]float64 {
	rng := randdist.NewRand(seed)
	out := make([][]float64, count)
	for v := range out {
		rates := make([]float64, 2+rng.Intn(5))
		load := 0.3 + 0.55*rng.Float64()
		sum := 0.0
		for i := range rates {
			rates[i] = 0.2 + rng.Float64()
			sum += rates[i]
		}
		for i := range rates {
			rates[i] *= load / sum
		}
		out[v] = rates
	}
	return out
}

// eachGenerated runs check as a parallel subtest for three generated
// rate vectors, each under every service shape, passing the vector's
// total load, a horizon and a run seed.  The horizon grows like
// (1−ρ)⁻², as the M/G/1 queue's asymptotic variance grows like (1−ρ)⁻⁴
// and its mean like (1−ρ)⁻², so the relative error of a time-averaged
// queue stays about level across loads; at ρ = 0.5 it is 4e5.
func eachGenerated(t *testing.T, seed int64, check func(t *testing.T, rates []float64, load, cv2, horizon float64, seed int64)) {
	for v, rates := range generatedLoads(seed, 3) {
		load := 0.0
		for _, r := range rates {
			load += r
		}
		for _, cv2 := range serviceCV2s {
			t.Run(fmt.Sprintf("K=%d/load=%.3f/cv2=%g", len(rates), load, cv2), func(t *testing.T) {
				t.Parallel()
				check(t, rates, load, cv2, 1e5/((1-load)*(1-load)), seed+int64(v))
			})
		}
	}
}

func TestGFIFOMatchesPollaczekKhinchine(t *testing.T) {
	// Total queue of M/G/1 FIFO must match L(x) = x + x²(1+cv²)/(2(1−x)).
	eachGenerated(t, 11, func(t *testing.T, rates []float64, load, cv2, horizon float64, seed int64) {
		model := mm1.MG1{CV2: cv2}
		res := runG(t, GConfig{
			Rates:   rates,
			Service: randdist.FromCV2(cv2),
			Horizon: horizon,
			Seed:    seed,
		})
		want := model.L(load)
		if math.Abs(res.TotalAvgQueue-want) > 0.06*want {
			t.Errorf("total queue %v, want P-K %v", res.TotalAvgQueue, want)
		}
		// Class-blind FIFO splits congestion in proportion to rate.
		prop := alloc.ProportionalG{Model: model}.Congestion(rates)
		for i := range rates {
			if math.Abs(res.AvgQueue[i]-prop[i]) > math.Max(5*res.QueueCI95[i], 0.06*prop[i]) {
				t.Errorf("user %d: %v, want %v", i, res.AvgQueue[i], prop[i])
			}
		}
	})
}

func TestGExponentialMatchesMemorylessEngine(t *testing.T) {
	// With exponential service both engines sample the same CTMC.
	rates := []float64{0.15, 0.35}
	g := runG(t, GConfig{Rates: rates, Service: randdist.Exponential{}, Horizon: 3e5, Seed: 12})
	m, err := Run(Config{Rates: rates, Discipline: &FIFO{}, Horizon: 3e5, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	for i := range rates {
		tol := 5 * (g.QueueCI95[i] + m.QueueCI95[i])
		if math.Abs(g.AvgQueue[i]-m.AvgQueue[i]) > tol {
			t.Errorf("engines disagree for user %d: %v vs %v (±%v)",
				i, g.AvgQueue[i], m.AvgQueue[i], tol)
		}
	}
}

func TestGSerialSplitterMatchesTablePriorityG(t *testing.T) {
	// The Table-1 construction under general service realizes exactly the
	// preemptive-resume priority allocation TablePriorityG (which equals
	// the serial ideal only at cv² = 1).
	eachGenerated(t, 14, func(t *testing.T, rates []float64, _, cv2, horizon float64, seed int64) {
		want := alloc.TablePriorityG{Model: mm1.MG1{CV2: cv2}}.Congestion(rates)
		res := runG(t, GConfig{
			Rates:    rates,
			Service:  randdist.FromCV2(cv2),
			Classify: &SerialClass{},
			Horizon:  horizon,
			Seed:     seed,
		})
		for i := range rates {
			tol := math.Max(5*res.QueueCI95[i], 0.05*want[i]+0.01)
			if math.Abs(res.AvgQueue[i]-want[i]) > tol {
				t.Errorf("user %d: DES %v, table-priority-G %v (±%v)", i, res.AvgQueue[i], want[i], tol)
			}
		}
	})
}

func TestGRankClassMatchesHOLPriorityG(t *testing.T) {
	// One class per user (ascending rate) under general service matches
	// the preemptive-resume priority sojourn formulas.
	eachGenerated(t, 15, func(t *testing.T, rates []float64, _, cv2, horizon float64, seed int64) {
		want := alloc.HOLPriorityG{Model: mm1.MG1{CV2: cv2}}.Congestion(rates)
		res := runG(t, GConfig{
			Rates:    rates,
			Service:  randdist.FromCV2(cv2),
			Classify: &RankClass{},
			Horizon:  horizon,
			Seed:     seed,
		})
		for i := range rates {
			tol := math.Max(5*res.QueueCI95[i], 0.06*want[i]+0.01)
			if math.Abs(res.AvgQueue[i]-want[i]) > tol {
				t.Errorf("user %d: DES %v, analytic %v (±%v)", i, res.AvgQueue[i], want[i], tol)
			}
		}
	})
}

func TestGLittlesLaw(t *testing.T) {
	rates := []float64{0.2, 0.3}
	res := runG(t, GConfig{
		Rates:    rates,
		Service:  randdist.FromCV2(2),
		Classify: &SerialClass{},
		Horizon:  2e5,
		Seed:     16,
	})
	for i, r := range rates {
		pred := r * res.AvgDelay[i]
		if math.Abs(pred-res.AvgQueue[i]) > 0.08*(res.AvgQueue[i]+0.05) {
			t.Errorf("Little's law broken for user %d: λd=%v c=%v", i, pred, res.AvgQueue[i])
		}
	}
}

func TestGRejectsBadConfig(t *testing.T) {
	if _, err := RunG(GConfig{}); err == nil {
		t.Error("empty config should error")
	}
	if _, err := RunG(GConfig{Rates: []float64{0.7, 0.7}}); err == nil {
		t.Error("overload should error")
	}
}

func TestGDeterministicBySeed(t *testing.T) {
	cfg := GConfig{Rates: []float64{0.2, 0.2}, Service: randdist.FromCV2(2), Horizon: 1e4, Seed: 99}
	a := runG(t, cfg)
	b := runG(t, cfg)
	for i := range a.AvgQueue {
		if a.AvgQueue[i] != b.AvgQueue[i] {
			t.Fatal("same seed must reproduce")
		}
	}
}

func TestDequeSemantics(t *testing.T) {
	var d deque
	p1 := &gpacket{user: 1}
	p2 := &gpacket{user: 2}
	p3 := &gpacket{user: 3}
	d.pushBack(p1)
	d.pushBack(p2)
	d.pushFront(p3) // a resumed packet jumps the queue
	if d.len() != 3 {
		t.Fatal("len")
	}
	if d.popFront() != p3 || d.popFront() != p1 || d.popFront() != p2 {
		t.Error("deque order wrong")
	}
}
