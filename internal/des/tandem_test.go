package des

import (
	"context"
	"math"
	"testing"

	"greednet/internal/alloc"
	"greednet/internal/network"
)

func TestTandemFIFOMatchesJackson(t *testing.T) {
	// Burke's theorem: a class-blind M/M/1's output is Poisson, so a FIFO
	// tandem has Jackson product form and the Poisson approximation is
	// exact — measured queues must match the network model within noise.
	cfg := TandemConfig{
		LongRates: []float64{0.2},
		CrossA:    []float64{0.3},
		CrossB:    []float64{0.25},
		NewDisc:   func() Discipline { return &FIFO{} },
		Horizon:   4e5,
		Seed:      31,
	}
	res, err := RunTandemCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := network.New(2, [][]int{{0, 1}, {0}, {1}}, alloc.Proportional{})
	if err != nil {
		t.Fatal(err)
	}
	want := nw.Congestion([]float64{0.2, 0.3, 0.25})
	for u := range want {
		if math.Abs(res.TotalQueue[u]-want[u]) > 0.05*want[u]+0.02 {
			t.Errorf("user %d: measured %v, Jackson %v", u, res.TotalQueue[u], want[u])
		}
	}
}

func TestTandemFairShareApproximationQuality(t *testing.T) {
	// With Fair Share (priority) stations the outputs are not Poisson;
	// the approximation should still be qualitatively right (within ~20%)
	// and the insulation property must hold end to end.
	cfg := TandemConfig{
		LongRates: []float64{0.1},
		CrossA:    []float64{0.45},
		CrossB:    []float64{0.35},
		NewDisc:   func() Discipline { return &FairShareSplitter{} },
		Horizon:   4e5,
		Seed:      32,
	}
	res, err := RunTandemCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := network.New(2, [][]int{{0, 1}, {0}, {1}}, alloc.FairShare{})
	if err != nil {
		t.Fatal(err)
	}
	want := nw.Congestion([]float64{0.1, 0.45, 0.35})
	for u := range want {
		rel := math.Abs(res.TotalQueue[u]-want[u]) / want[u]
		if rel > 0.2 {
			t.Errorf("user %d: measured %v vs approx %v (rel %v)", u, res.TotalQueue[u], want[u], rel)
		}
	}
	// End-to-end insulation: the light long flow's summed queue stays at
	// most its two-hop protection bound.
	bound := nw.ProtectionBound(0, 0.1)
	if res.TotalQueue[0] > bound*1.1 {
		t.Errorf("long flow queue %v above two-hop bound %v", res.TotalQueue[0], bound)
	}
}

func TestTandemCrossUsersUnaffectedByOtherStation(t *testing.T) {
	// Cross-A users never appear at station B and vice versa.
	res, err := RunTandemCtx(context.Background(), TandemConfig{
		LongRates: []float64{0.1},
		CrossA:    []float64{0.2},
		CrossB:    []float64{0.2},
		NewDisc:   func() Discipline { return &FIFO{} },
		Horizon:   5e4,
		Seed:      33,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.QueueB[1] != 0 {
		t.Errorf("cross-A user has station-B queue %v", res.QueueB[1])
	}
	if res.QueueA[2] != 0 {
		t.Errorf("cross-B user has station-A queue %v", res.QueueA[2])
	}
}

func TestTandemEndToEndDelayViaLittle(t *testing.T) {
	cfg := TandemConfig{
		LongRates: []float64{0.2},
		CrossA:    []float64{0.2},
		CrossB:    []float64{0.3},
		NewDisc:   func() Discipline { return &FIFO{} },
		Horizon:   3e5,
		Seed:      34,
	}
	res, err := RunTandemCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Little's law over the long flow's whole route.
	pred := 0.2 * res.EndToEndDelay[0]
	if math.Abs(pred-res.TotalQueue[0]) > 0.08*res.TotalQueue[0] {
		t.Errorf("Little's law end-to-end: λd=%v vs q=%v", pred, res.TotalQueue[0])
	}
}

func TestTandemRejectsBadConfig(t *testing.T) {
	if _, err := RunTandemCtx(context.Background(), TandemConfig{}); err == nil {
		t.Error("empty config should error")
	}
	if _, err := RunTandemCtx(context.Background(), TandemConfig{
		LongRates: []float64{0.5},
		CrossA:    []float64{0.6},
		NewDisc:   func() Discipline { return &FIFO{} },
	}); err == nil {
		t.Error("overloaded station should error")
	}
	if _, err := RunTandemCtx(context.Background(), TandemConfig{
		CrossA:  []float64{0.2},
		NewDisc: func() Discipline { return &FIFO{} },
	}); err == nil {
		t.Error("tandem without long users should error")
	}
}
