// Package plot renders small ASCII line charts for the convergence
// trajectories and parameter sweeps the experiments produce —
// terminal-native stand-ins for the figures a paper reproduction would
// normally plot.
package plot

import (
	"fmt"
	"math"
	"strings"
)

// Series is one named line in a Chart.
type Series struct {
	// Name labels the series in the legend.
	Name string
	// Y holds the sample values; X is implicit (sample index).
	Y []float64
}

// Chart renders one or more series into a width×height ASCII grid with a
// numeric Y-axis and a legend line per series (marked with distinct
// glyphs).
type Chart struct {
	// Width and Height of the plot area in characters; defaults 60×12.
	Width, Height int
	// LogY plots log10 of the values (non-positive samples are skipped).
	LogY bool
}

// seriesGlyphs mark successive series.
var seriesGlyphs = []byte{'*', 'o', '+', 'x', '#', '@'}

// Render draws the chart.
func (c Chart) Render(series ...Series) string {
	w, h := c.Width, c.Height
	if w <= 0 {
		w = 60
	}
	if h <= 0 {
		h = 12
	}
	transform := func(v float64) (float64, bool) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, false
		}
		if c.LogY {
			if v <= 0 {
				return 0, false
			}
			return math.Log10(v), true
		}
		return v, true
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	maxLen := 0
	for _, s := range series {
		if len(s.Y) > maxLen {
			maxLen = len(s.Y)
		}
		for _, v := range s.Y {
			if t, ok := transform(v); ok {
				lo = math.Min(lo, t)
				hi = math.Max(hi, t)
			}
		}
	}
	if maxLen == 0 || math.IsInf(lo, 1) {
		return "(no data)\n"
	}
	if hi == lo { //lint:allow floateq degenerate exactly-flat range widened for display
		hi = lo + 1
	}
	grid := make([][]byte, h)
	for row := range grid {
		grid[row] = []byte(strings.Repeat(" ", w))
	}
	for si, s := range series {
		glyph := seriesGlyphs[si%len(seriesGlyphs)]
		for k, v := range s.Y {
			t, ok := transform(v)
			if !ok {
				continue
			}
			col := 0
			if maxLen > 1 {
				col = k * (w - 1) / (maxLen - 1)
			}
			row := int((hi - t) / (hi - lo) * float64(h-1))
			if row < 0 {
				row = 0
			}
			if row >= h {
				row = h - 1
			}
			grid[row][col] = glyph
		}
	}
	yLabel := func(t float64) string {
		if c.LogY {
			return fmt.Sprintf("%9.3g", math.Pow(10, t))
		}
		return fmt.Sprintf("%9.3g", t)
	}
	var b strings.Builder
	for row := 0; row < h; row++ {
		frac := float64(row) / float64(h-1)
		val := hi - frac*(hi-lo)
		label := strings.Repeat(" ", 9)
		if row == 0 || row == h-1 || row == (h-1)/2 {
			label = yLabel(val)
		}
		b.WriteString(label)
		b.WriteString(" |")
		b.Write(grid[row])
		b.WriteByte('\n')
	}
	b.WriteString(strings.Repeat(" ", 9) + " +" + strings.Repeat("-", w) + "\n")
	for si, s := range series {
		fmt.Fprintf(&b, "%s %c = %s\n", strings.Repeat(" ", 9), seriesGlyphs[si%len(seriesGlyphs)], s.Name)
	}
	return b.String()
}

// Column extracts column i from a trajectory of vectors (one series per
// user from dynamics output).
func Column(traj [][]float64, i int) []float64 {
	out := make([]float64, len(traj))
	for k, row := range traj {
		out[k] = row[i]
	}
	return out
}
