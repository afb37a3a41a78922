package network

import (
	"math"
	"testing"

	"greednet/internal/alloc"
	"greednet/internal/core"
	"greednet/internal/game"
	"greednet/internal/utility"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, nil, alloc.FairShare{}); err == nil {
		t.Error("zero switches should error")
	}
	if _, err := New(2, [][]int{{0, 5}}, alloc.FairShare{}); err == nil {
		t.Error("invalid switch index should error")
	}
	if _, err := New(2, [][]int{{}}, alloc.FairShare{}); err == nil {
		t.Error("empty route should error")
	}
	if _, err := New(2, [][]int{{0, 0}}, alloc.FairShare{}); err == nil {
		t.Error("repeated switch should error")
	}
	if _, err := New(2, [][]int{{0}}, nil); err == nil {
		t.Error("nil discipline should error")
	}
}

func TestSingleSwitchReducesToAllocation(t *testing.T) {
	r := []float64{0.1, 0.2, 0.3}
	nw, err := New(1, [][]int{{0}, {0}, {0}}, alloc.FairShare{})
	if err != nil {
		t.Fatal(err)
	}
	got := nw.Congestion(r)
	want := alloc.FairShare{}.Congestion(r)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("C[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	for i := range r {
		if math.Abs(nw.CongestionOf(r, i)-want[i]) > 1e-12 {
			t.Errorf("CongestionOf(%d) mismatch", i)
		}
	}
}

func TestLineTopologySums(t *testing.T) {
	// Long user crosses both switches; each switch behaves as a two-user
	// single-switch system.
	nw, err := Line(2, alloc.FairShare{})
	if err != nil {
		t.Fatal(err)
	}
	r := []float64{0.2, 0.3, 0.1} // user 0 long; users 1, 2 local
	got := nw.Congestion(r)
	s1 := alloc.FairShare{}.Congestion([]float64{0.2, 0.3})
	s2 := alloc.FairShare{}.Congestion([]float64{0.2, 0.1})
	if math.Abs(got[0]-(s1[0]+s2[0])) > 1e-12 {
		t.Errorf("long user C = %v, want %v", got[0], s1[0]+s2[0])
	}
	if math.Abs(got[1]-s1[1]) > 1e-12 || math.Abs(got[2]-s2[1]) > 1e-12 {
		t.Errorf("local users C = %v", got)
	}
}

func TestNetworkNashConvergesFairShare(t *testing.T) {
	// §5.4: straightforward generalizations of the single-switch results
	// hold; best-response converges on the line with FS switches.
	nw, err := Line(3, alloc.FairShare{})
	if err != nil {
		t.Fatal(err)
	}
	us := core.Profile{
		utility.NewLinear(1, 0.3), // long user pays congestion on 3 switches
		utility.NewLinear(1, 0.25),
		utility.NewLinear(1, 0.25),
		utility.NewLinear(1, 0.25),
	}
	res, err := game.SolveNash(nw, us, []float64{0.1, 0.1, 0.1, 0.1}, game.NashOptions{})
	if err != nil || !res.Converged {
		t.Fatalf("network Nash failed: %v %+v", err, res)
	}
	if res.MaxGain > 1e-6 {
		t.Errorf("max deviation gain %v", res.MaxGain)
	}
	// The long user faces triple congestion, so sends less than the
	// cross users with comparable preferences.
	if res.R[0] >= res.R[1] {
		t.Errorf("long user should send less: %v", res.R)
	}
}

func TestNetworkProtectionFairShare(t *testing.T) {
	// A naive long user is protected on every FS switch even when every
	// cross user floods.
	nw, err := Line(3, alloc.FairShare{})
	if err != nil {
		t.Fatal(err)
	}
	r := []float64{0.1, 0.9, 0.95, 0.99}
	c := nw.CongestionOf(r, 0)
	bound := nw.ProtectionBound(0, r[0])
	if c > bound+1e-9 {
		t.Errorf("network FS protection violated: %v > %v", c, bound)
	}
	if math.IsInf(c, 1) {
		t.Error("long user's congestion should stay finite under FS")
	}
}

func TestNetworkProportionalHarmsLongUser(t *testing.T) {
	fsNet, _ := Line(3, alloc.FairShare{})
	prNet, _ := Line(3, alloc.Proportional{})
	r := []float64{0.1, 0.8, 0.8, 0.8}
	cf := fsNet.CongestionOf(r, 0)
	cp := prNet.CongestionOf(r, 0)
	if !(cp > 3*cf) {
		t.Errorf("FIFO network should hurt the long user: fifo=%v fs=%v", cp, cf)
	}
}

func TestNetworkOverloadPropagatesInf(t *testing.T) {
	nw, _ := Line(2, alloc.Proportional{})
	r := []float64{0.5, 0.7, 0.1} // switch 0 overloaded
	if c := nw.CongestionOf(r, 0); !math.IsInf(c, 1) {
		t.Errorf("expected +Inf for user crossing an overloaded FIFO switch, got %v", c)
	}
	// The user on the non-overloaded switch stays finite.
	if c := nw.CongestionOf(r, 2); math.IsInf(c, 1) {
		t.Error("user 2's switch is not overloaded")
	}
}

func TestUsersAt(t *testing.T) {
	nw, _ := Line(2, alloc.FairShare{})
	if got := nw.usersAt[0]; len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("usersAt[0] = %v", got)
	}
}
