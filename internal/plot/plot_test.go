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
	// 8 plot rows + axis + 2 legend lines + the overlap line: the two
	// series cross at (2, 2).
	if len(lines) != 12 {
		t.Errorf("got %d lines, want 12:\n%s", len(lines), out)
	}
}

// TestChartOverlapShowsBothSeries pins that a later series does not
// hide an earlier one: every cell two series share is drawn with the
// overlap glyph, which the legend lists only when some cell is shared.
func TestChartOverlapShowsBothSeries(t *testing.T) {
	y := []float64{1, 0.5, 0.25, 0.125}
	out := Chart{Width: 20, Height: 6}.Render(Series{Name: "a", Y: y}, Series{Name: "b", Y: y})
	plotArea := out[:strings.Index(out, "+---")]
	if strings.Count(plotArea, "&") != len(y) || strings.ContainsAny(plotArea, "*o") {
		t.Errorf("identical series: want %d overlap cells and no lone glyph:\n%s", len(y), out)
	}
	if !strings.Contains(out, "& = more than one series") {
		t.Errorf("overlap missing from the legend:\n%s", out)
	}
	apart := Chart{Width: 20, Height: 6}.Render(Series{Name: "a", Y: y}, Series{Name: "b", Y: []float64{9, 9, 9, 9}})
	if strings.Contains(apart, "&") {
		t.Errorf("disjoint series drew or listed an overlap:\n%s", apart)
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
