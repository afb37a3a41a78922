package sweep

import (
	"bytes"
	"context"

	"greednet/internal/alloc"
	"greednet/internal/core"
	"greednet/internal/utility"
	"math"
	"strings"
	"testing"
)

// bg is the context of every sweep these tests run to completion.
var bg = context.Background()

func TestEigenvalueSweepShape(t *testing.T) {
	tab, err := EigenvalueCtx(bg, 0, 4, []float64{0.5, 0.1, 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	rho := tab.Column("rho")
	// Instability grows as γ shrinks and stays below the 1−N limit.
	for k := 1; k < len(rho); k++ {
		if rho[k] <= rho[k-1] {
			t.Errorf("ρ should grow as γ shrinks: %v", rho)
		}
	}
	for k, v := range rho {
		if v >= 3 {
			t.Errorf("row %d: ρ=%v should stay below N−1=3", k, v)
		}
		analytic := tab.Column("rho_analytic")[k]
		if math.Abs(v-analytic) > 0.03*analytic {
			t.Errorf("row %d: ρ=%v vs analytic %v", k, v, analytic)
		}
	}
}

func TestEfficiencyGapGrowsWithN(t *testing.T) {
	tab, err := EfficiencyGapCtx(bg, 0, 0.2, []int{2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	loss := tab.Column("relative_loss")
	for k := range loss {
		if loss[k] <= 0 {
			t.Errorf("loss should be positive: %v", loss)
		}
		if k > 0 && loss[k] <= loss[k-1] {
			t.Errorf("loss should grow with n: %v", loss)
		}
	}
}

func TestProtectionSweep(t *testing.T) {
	tab, err := ProtectionCtx(bg, 0.1, 2, []float64{0.2, 0.5, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	fifo := tab.Column("victim_c_fifo")
	fs := tab.Column("victim_c_fairshare")
	bound := tab.Column("bound")
	for k := range tab.Rows {
		if fs[k] > bound[k]+1e-12 {
			t.Errorf("FS above bound at row %d", k)
		}
		if fifo[k] <= fs[k] {
			t.Errorf("FIFO should exceed FS at row %d: %v vs %v", k, fifo[k], fs[k])
		}
	}
	// FIFO blows up as the attack rate grows.
	if fifo[2] <= fifo[0] {
		t.Errorf("FIFO congestion should grow with attack: %v", fifo)
	}
}

func TestGHCWidthsSweep(t *testing.T) {
	tab, err := GHCWidthsCtx(bg, 3, 0.25, 12)
	if err != nil {
		t.Fatal(err)
	}
	fs := tab.Column("width_fairshare")
	fifo := tab.Column("width_fifo")
	if fs[len(fs)-1] > 0.01 {
		t.Errorf("FS width should collapse: %v", fs)
	}
	if fifo[len(fifo)-1] < 0.5 {
		t.Errorf("FIFO width should stall wide: %v", fifo)
	}
}

func TestInteractiveDelaySweep(t *testing.T) {
	tab, err := InteractiveDelayCtx(bg, 0.02, []float64{0.1, 0.5, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	df := tab.Column("delay_fifo")
	ds := tab.Column("delay_fairshare")
	// FS delay for the light flow is flat; FIFO delay explodes.
	if math.Abs(ds[2]-ds[0]) > 1e-9 {
		t.Errorf("FS light-flow delay should be load-independent: %v", ds)
	}
	if df[2] < 5*df[0] {
		t.Errorf("FIFO light-flow delay should explode: %v", df)
	}
}

func TestNewtonResidualsSweep(t *testing.T) {
	tab, err := NewtonResidualsCtx(bg, 0, 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	fs := tab.Column("resid_fairshare")
	if fs[len(fs)-1] > 1e-6*fs[0] {
		t.Errorf("FS Newton residuals should collapse: %v", fs)
	}
}

func TestReactionCurves(t *testing.T) {
	us := core.Profile{utility.NewLinear(1, 0.25), utility.NewLinear(1, 0.25)}
	tab, err := ReactionCurvesCtx(bg, alloc.FairShare{}, us, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 20 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	// Under Fair Share a user's best reply is INSENSITIVE to a larger
	// opponent (insulation): the curve flattens once the opponent exceeds
	// the reply.
	br1 := tab.Column("br_user1")
	last := br1[len(br1)-1]
	mid := br1[len(br1)/2]
	if mathAbs(last-mid) > 1e-4 {
		t.Errorf("FS reaction curve should flatten: mid %v vs last %v", mid, last)
	}
	// And the flat level is the user's standalone optimum against equal
	// senders.
	if _, err := ReactionCurvesCtx(bg, alloc.FairShare{}, us[:1], 10); err == nil {
		t.Error("needs exactly two users")
	}
	// FIFO reaction curves keep decreasing (coupling).
	tabF, err := ReactionCurvesCtx(bg, alloc.Proportional{}, us, 20)
	if err != nil {
		t.Fatal(err)
	}
	brF := tabF.Column("br_user1")
	if !(brF[3] > brF[10] && brF[10] > brF[16]) {
		t.Errorf("FIFO reaction curve should decrease: %v", brF)
	}
}

func mathAbs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestWriteCSV(t *testing.T) {
	tab, err := ProtectionCtx(bg, 0.1, 2, []float64{0.2, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV should have header + 2 rows: %q", out)
	}
	if !strings.HasPrefix(lines[0], "attack_rate,") {
		t.Errorf("bad header: %q", lines[0])
	}
}

func TestWriteCSVRaggedRejected(t *testing.T) {
	tab := Table{Header: []string{"a", "b"}, Rows: [][]float64{{1}}}
	if err := tab.WriteCSV(&bytes.Buffer{}); err == nil {
		t.Error("ragged table should error")
	}
}

func TestColumnMissing(t *testing.T) {
	tab := Table{Header: []string{"a"}, Rows: [][]float64{{1}}}
	if tab.Column("nope") != nil {
		t.Error("missing column should be nil")
	}
}
