package experiments

import (
	"fmt"
	"strings"

	"gps/internal/metrics"
)

// Table is a renderable rows-and-columns result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render formats the table as aligned text.
func (t Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Figure is a renderable set of named curves (one table row per sample).
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  []string
}

// Series is one named curve.
type Series struct {
	Name  string
	Curve metrics.Curve
	// Y selects which metric of each point is the y value; nil plots
	// FracAll.
	Y func(metrics.Point) float64
}

func (s Series) y(p metrics.Point) float64 {
	if s.Y != nil {
		return s.Y(p)
	}
	return p.FracAll
}

// Render formats each series as "x y" pairs plus summary statistics.
func (f Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", f.Title)
	fmt.Fprintf(&b, "x: %s, y: %s\n", f.XLabel, f.YLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, "-- %s (%d points)\n", s.Name, len(s.Curve))
		step := len(s.Curve)/12 + 1
		for i := 0; i < len(s.Curve); i += step {
			p := s.Curve[i]
			fmt.Fprintf(&b, "   %12.4f  %.4f\n", p.ScansUnits, s.y(p))
		}
		if n := len(s.Curve); n > 0 && (n-1)%step != 0 {
			p := s.Curve[n-1]
			fmt.Fprintf(&b, "   %12.4f  %.4f\n", p.ScansUnits, s.y(p))
		}
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func fmtPct(v float64) string {
	return fmt.Sprintf("%.1f%%", 100*v)
}
