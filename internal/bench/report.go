// Package bench is the experiment harness: one driver per table and figure
// of the paper's evaluation (Section VI), each regenerating the same rows
// or series the paper reports. cmd/teamnet-bench exposes them on the
// command line and bench_test.go wires them into testing.B.
//
// Methodology (see DESIGN.md §1 and EXPERIMENTS.md): predictive accuracy
// comes from really training the implemented systems on the synthetic
// datasets; latency and resource rows come from the edgesim cost model
// applied to the real FLOP counts of the paper-size architectures and the
// real byte counts of the implemented wire protocols. Every number is
// deterministic given the seed.
package bench

import (
	"fmt"
	"math"
	"strings"
)

// Row is one system's measurements in a comparison table.
type Row struct {
	System      string
	Nodes       int
	AccuracyPct float64
	InferenceMs float64
	MemoryPct   float64
	CPUPct      float64
	GPUPct      float64 // meaningful only when the table's device has a GPU
}

// Table is a rendered experiment matching one paper table (or the tabular
// part of a figure).
type Table struct {
	ID    string // experiment id, e.g. "table1a"
	Title string
	GPU   bool // include the GPU row
	Rows  []Row
}

// String renders the table in the paper's layout: metrics as rows, systems
// as columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	header := []string{"metric"}
	for _, r := range t.Rows {
		name := r.System
		if r.Nodes > 1 {
			name = fmt.Sprintf("%s(x%d)", r.System, r.Nodes)
		}
		header = append(header, name)
	}
	writeCols(&b, header)
	metrics := []struct {
		name string
		get  func(Row) float64
	}{
		{"Accuracy (%)", func(r Row) float64 { return r.AccuracyPct }},
		{"Inference Time (ms)", func(r Row) float64 { return r.InferenceMs }},
		{"Memory Usage (%)", func(r Row) float64 { return r.MemoryPct }},
		{"CPU Usage (%)", func(r Row) float64 { return r.CPUPct }},
	}
	if t.GPU {
		metrics = append(metrics, struct {
			name string
			get  func(Row) float64
		}{"GPU Usage (%)", func(r Row) float64 { return r.GPUPct }})
	}
	for _, m := range metrics {
		cols := []string{m.name}
		for _, r := range t.Rows {
			cols = append(cols, formatCell(m.get(r)))
		}
		writeCols(&b, cols)
	}
	return b.String()
}

func formatCell(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	switch {
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

func writeCols(b *strings.Builder, cols []string) {
	for i, c := range cols {
		if i == 0 {
			fmt.Fprintf(b, "%-22s", c)
		} else {
			fmt.Fprintf(b, "%14s", c)
		}
	}
	b.WriteString("\n")
}

// Series is a figure: named curves over a shared x axis.
type Series struct {
	ID     string
	Title  string
	XLabel string
	Labels []string    // one per curve
	X      []float64   // shared x values
	Y      [][]float64 // Y[curve][point]
}

// String renders the series as aligned columns (x then one column per
// curve), the textual analogue of the paper's line plots.
func (s *Series) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", s.ID, s.Title)
	cols := append([]string{s.XLabel}, s.Labels...)
	writeCols(&b, cols)
	for i, x := range s.X {
		row := []string{fmt.Sprintf("%.0f", x)}
		for c := range s.Labels {
			row = append(row, fmt.Sprintf("%.4f", s.Y[c][i]))
		}
		writeCols(&b, row)
	}
	return b.String()
}

// Matrix is a heat-map-style figure (Figure 9's specialization plots):
// rows × cols of values with labels.
type Matrix struct {
	ID       string
	Title    string
	RowNames []string
	ColNames []string
	Values   [][]float64
}

// String renders the matrix with row/column labels.
func (m *Matrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", m.ID, m.Title)
	writeCols(&b, append([]string{""}, m.ColNames...))
	for i, name := range m.RowNames {
		row := []string{name}
		for _, v := range m.Values[i] {
			row = append(row, fmt.Sprintf("%.2f", v))
		}
		writeCols(&b, row)
	}
	return b.String()
}
