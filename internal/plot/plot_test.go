package plot

import (
	"strings"
	"testing"
)

func TestChartRender(t *testing.T) {
	out := Chart{Width: 30, Height: 8}.Render(
		Series{Name: "up", Y: []float64{0, 1, 2, 3, 4}},
		Series{Name: "down", Y: []float64{4, 3, 2, 1, 0}},
	)
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Errorf("missing glyphs:\n%s", out)
	}
	if !strings.Contains(out, "up") || !strings.Contains(out, "down") {
		t.Errorf("missing legend:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// 8 plot rows + axis + 2 legend lines.
	if len(lines) != 11 {
		t.Errorf("got %d lines, want 11:\n%s", len(lines), out)
	}
}

func TestChartLogY(t *testing.T) {
	out := Chart{Width: 20, Height: 6, LogY: true}.Render(
		Series{Name: "decay", Y: []float64{1, 0.1, 0.01, 0.001}},
	)
	if !strings.Contains(out, "*") {
		t.Errorf("log chart empty:\n%s", out)
	}
	// Non-positive values must not panic and are skipped.
	out2 := Chart{LogY: true}.Render(Series{Name: "zeros", Y: []float64{0, -1}})
	if !strings.Contains(out2, "no data") {
		t.Errorf("all-non-positive log chart should say no data: %q", out2)
	}
}

func TestChartEmpty(t *testing.T) {
	if out := (Chart{}).Render(); !strings.Contains(out, "no data") {
		t.Errorf("empty chart should say no data: %q", out)
	}
}

func TestColumn(t *testing.T) {
	traj := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	col := Column(traj, 1)
	if col[0] != 2 || col[1] != 4 || col[2] != 6 {
		t.Errorf("Column = %v", col)
	}
}
