package sweep

import (
	"bytes"
	"math"
	"testing"
)

// csvOf renders a table for byte comparison.
func csvOf(t *testing.T, tab Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSweepsByteIdenticalAcrossWorkers pins the parallel sweeps'
// determinism contract: the rendered CSV must be identical at workers=1
// and workers=8 for every pooled sweep.
func TestSweepsByteIdenticalAcrossWorkers(t *testing.T) {
	builds := []struct {
		name string
		fn   func(workers int) (Table, error)
	}{
		{"eigenvalue", func(w int) (Table, error) { return EigenvalueCtx(bg, w, 4, []float64{0.5, 0.1, 0.02}) }},
		{"efficiency-gap", func(w int) (Table, error) { return EfficiencyGapCtx(bg, w, 0.2, []int{2, 4, 8}) }},
		{"newton-residuals", func(w int) (Table, error) { return NewtonResidualsCtx(bg, w, 3, 6) }},
	}
	for _, b := range builds {
		seq, err := b.fn(1)
		if err != nil {
			t.Fatalf("%s (workers=1): %v", b.name, err)
		}
		par, err := b.fn(8)
		if err != nil {
			t.Fatalf("%s (workers=8): %v", b.name, err)
		}
		if !bytes.Equal(csvOf(t, seq), csvOf(t, par)) {
			t.Errorf("%s: CSV differs between workers=1 and workers=8", b.name)
		}
	}
}

// TestNewtonResidualsColumnsPopulated guards the positional-assignment
// fix: both residual columns must carry finite leading entries (the old
// map-keyed-by-Name() lookup turned a renamed column into silent NaN).
func TestNewtonResidualsColumnsPopulated(t *testing.T) {
	tab, err := NewtonResidualsCtx(bg, 0, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"resid_fairshare", "resid_fifo"} {
		vals := tab.Column(col)
		if len(vals) == 0 {
			t.Fatalf("column %s missing", col)
		}
		if math.IsNaN(vals[0]) {
			t.Errorf("column %s starts NaN; positional results regressed", col)
		}
	}
}
