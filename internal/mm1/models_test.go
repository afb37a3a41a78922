package mm1

import (
	"math"
	"testing"
)

func TestModelNames(t *testing.T) {
	if (MM1{}).Name() != "mm1" {
		t.Error("MM1 name")
	}
	if (MG1{CV2: 2}).Name() != "mg1(cv2=2)" {
		t.Errorf("MG1 name: %q", (MG1{CV2: 2}).Name())
	}
}

func TestMD1HalvesMM1Queueing(t *testing.T) {
	// M/D/1 waiting is half of M/M/1's: L_MD1 = ρ + ρ²/(2(1−ρ)).
	x := 0.8
	md1 := MD1().L(x)
	want := x + x*x/(2*(1-x))
	if math.Abs(md1-want) > 1e-12 {
		t.Errorf("MD1 L = %v, want %v", md1, want)
	}
	if md1 >= G(x) {
		t.Errorf("M/D/1 (%v) should queue less than M/M/1 (%v)", md1, G(x))
	}
}

func TestModelSaturation(t *testing.T) {
	for _, m := range []ServerModel{MM1{}, MD1(), MG1{CV2: 3}} {
		if !math.IsInf(m.L(1.2), 1) || !math.IsInf(m.LPrime(1), 1) || !math.IsInf(m.LPrime2(1.5), 1) {
			t.Errorf("%s should saturate", m.Name())
		}
	}
}

func TestSymmetricCongestionG(t *testing.T) {
	m := MG1{CV2: 2}
	got := SymmetricCongestionG(m, 4, 0.2)
	want := m.L(0.8) / 4
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("SymmetricCongestionG = %v, want %v", got, want)
	}
	if !math.IsNaN(SymmetricCongestionG(m, 0, 0.2)) {
		t.Error("n=0 should be NaN")
	}
}

func TestCheckFeasibleGMatchesMM1Version(t *testing.T) {
	r := []float64{0.1, 0.2, 0.3}
	s := Sum(r)
	c := make([]float64, len(r))
	for i := range r {
		c[i] = r[i] / (1 - s)
	}
	a := CheckFeasible(r, c, 1e-9)
	b := CheckFeasibleG(MM1{}, r, c, 1e-9)
	if a.Feasible != b.Feasible || a.Interior != b.Interior {
		t.Errorf("feasibility engines disagree: %+v vs %+v", a, b)
	}
	if math.Abs(a.TotalResidual-b.TotalResidual) > 1e-12 {
		t.Errorf("residuals differ: %v vs %v", a.TotalResidual, b.TotalResidual)
	}
}

func TestCheckFeasibleGRejections(t *testing.T) {
	m := MD1()
	if CheckFeasibleG(m, nil, nil, 1e-9).Feasible {
		t.Error("empty should be infeasible")
	}
	if CheckFeasibleG(m, []float64{0.1}, []float64{0.1, 0.2}, 1e-9).Feasible {
		t.Error("length mismatch should be infeasible")
	}
	if CheckFeasibleG(m, []float64{0.2}, []float64{math.NaN()}, 1e-9).Feasible {
		t.Error("NaN congestion should be infeasible")
	}
	// Total too small for the station.
	if CheckFeasibleG(m, []float64{0.4, 0.4}, []float64{0.1, 0.1}, 1e-9).Feasible {
		t.Error("undershoot should be infeasible")
	}
	// Single user: exactly the station curve is feasible.
	if !CheckFeasibleG(m, []float64{0.4}, []float64{m.L(0.4)}, 1e-9).Feasible {
		t.Error("single-user station value should be feasible")
	}
}

func TestCheckFeasibleGPrioritySaturated(t *testing.T) {
	m := MG1{CV2: 1}
	r := []float64{0.3, 0.4}
	c1 := m.L(0.3)
	c := []float64{c1, m.L(0.7) - c1}
	rep := CheckFeasibleG(m, r, c, 1e-9)
	if !rep.Feasible || rep.Interior {
		t.Errorf("priority split should be feasible boundary: %+v", rep)
	}
}
