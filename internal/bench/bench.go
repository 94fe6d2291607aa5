// Package bench regenerates the paper's evaluation: Table 1 and Figure 7
// (AM-table construction time, lattice algorithm vs. the sorting
// baseline) and Table 2 (node-code execution time for the four loop
// shapes of Figure 8).
//
// The original numbers were measured on a 32-node Intel iPSC/860 with the
// icc -O4 compiler; reported times were the maximum over all processors
// (Section 6.1). Here both algorithms run on the host CPU, and "maximum
// over all processors" becomes the maximum over the per-processor runs
// executed sequentially. Absolute microseconds differ from 1995 hardware;
// the comparisons the paper draws — lattice ≈ sorting for tiny k, lattice
// winning by a growing factor as k grows, shape (a) ≫ (b) ≥ (c) > (d) —
// are reproduced in shape (see EXPERIMENTS.md).
package bench

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/codegen"
	"repro/internal/core"
)

// Method names a table-construction algorithm under test.
type Method string

// The two contenders of Table 1/Figure 7.
const (
	MethodLattice Method = "Lattice"
	MethodSorting Method = "Sorting"
)

// construct runs the named method. Mirroring the original implementation
// (Section 6.1), Sorting switches to the linear-time radix sort at
// k ≥ 64.
func construct(m Method, pr core.Problem) (core.Sequence, error) {
	switch m {
	case MethodLattice:
		return core.Lattice(pr)
	case MethodSorting:
		if pr.K >= 64 {
			return core.SortingRadix(pr)
		}
		return core.Sorting(pr)
	default:
		return core.Sequence{}, fmt.Errorf("bench: unknown method %q", m)
	}
}

// checkMethods requires every processor's Lattice and Sorting sequences
// to equal core.Enumerate's before a Table 1 cell is timed, so a wrong
// method cannot win a cell.
func checkMethods(p, k, s int64) error {
	for m := int64(0); m < p; m++ {
		pr := core.Problem{P: p, K: k, S: s, M: m}
		want, err := core.Enumerate(pr)
		lat, latErr := construct(MethodLattice, pr)
		srt, srtErr := construct(MethodSorting, pr)
		if err := errors.Join(err, latErr, srtErr); err != nil {
			return err
		}
		if !lat.Equal(want) || !srt.Equal(want) {
			return fmt.Errorf("bench: %+v: Lattice %v, Sorting %v, Enumerate %v", pr, lat, srt, want)
		}
	}
	return nil
}

// sink defeats dead-code elimination of the timed constructions.
var sink int

// StrideCase is one stride column of Table 1. The stride may depend on k
// and pk (the paper's s = k+1, pk−1, pk+1 columns).
type StrideCase struct {
	Label  string
	Stride func(k, pk int64) int64
}

// Table1Strides returns the paper's five stride columns.
func Table1Strides() []StrideCase {
	return []StrideCase{
		{"s=7", func(k, pk int64) int64 { return 7 }},
		{"s=99", func(k, pk int64) int64 { return 99 }},
		{"s=k+1", func(k, pk int64) int64 { return k + 1 }},
		{"s=pk-1", func(k, pk int64) int64 { return pk - 1 }},
		{"s=pk+1", func(k, pk int64) int64 { return pk + 1 }},
	}
}

// Table1Ks returns the paper's block sizes (4 through 512, powers of two;
// k = 1, 2 omitted as in the paper because the work is negligible).
func Table1Ks() []int64 { return []int64{4, 8, 16, 32, 64, 128, 256, 512} }

// Cell is one measurement pair of Table 1.
type Cell struct {
	Stride           string
	Lattice, Sorting Spread
}

// Row is one block-size row of Table 1.
type Row struct {
	K     int64
	Cells []Cell
}

// Table1 measures the full table for p processors (the paper uses 32) and
// lower bound 0. Each (k, s) cell times Lattice against Sorting.
func Table1(p int64, reps int) ([]Row, error) {
	var rows []Row
	for _, k := range Table1Ks() {
		row := Row{K: k}
		for _, sc := range Table1Strides() {
			s := sc.Stride(k, p*k)
			if err := checkMethods(p, k, s); err != nil {
				return nil, err
			}
			var cells []op
			for _, m := range []Method{MethodLattice, MethodSorting} {
				cells = append(cells, func(proc int) error {
					seq, err := construct(m, core.Problem{P: p, K: k, S: s, M: int64(proc)})
					sink += len(seq.Gaps)
					return err
				})
			}
			sp, err := timeCells(int(p), reps, cells)
			if err != nil {
				return nil, err
			}
			row.Cells = append(row.Cells, Cell{Stride: sc.Label, Lattice: sp[0], Sorting: sp[1]})
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable1 renders rows in the paper's layout (times in
// microseconds).
func FormatTable1(rows []Row) string {
	var b strings.Builder
	b.WriteString("Table 1: AM-table construction time in microseconds (median over reps of the max over processors)\n")
	b.WriteString(fmt.Sprintf("%-8s", "Block"))
	for _, c := range rows[0].Cells {
		b.WriteString(fmt.Sprintf("%22s", c.Stride))
	}
	b.WriteString("\n")
	b.WriteString(fmt.Sprintf("%-8s", "size"))
	for range rows[0].Cells {
		b.WriteString(fmt.Sprintf("%11s%11s", "Lattice", "Sorting"))
	}
	b.WriteString("\n")
	for _, r := range rows {
		b.WriteString(fmt.Sprintf("k=%-6d", r.K))
		for _, c := range r.Cells {
			b.WriteString(fmt.Sprintf("%11.2f%11.2f", us(c.Lattice.Median), us(c.Sorting.Median)))
		}
		b.WriteString("\n")
	}
	return b.String()
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// Figure7 returns the s=7 column of the Table 1 rows (Table1Strides'
// first) — the data plotted in the paper's Figure 7 (lattice vs sorting
// versus block size). It reads the cells Table1 measured instead of
// timing them again, so the table and the figure show one number per
// cell.
func Figure7(table1 []Row) []Row {
	var rows []Row
	for _, r := range table1 {
		rows = append(rows, Row{K: r.K, Cells: r.Cells[:1]})
	}
	return rows
}

// FormatFigure7 renders the series as two aligned columns plus the ratio,
// the textual equivalent of the paper's plot.
func FormatFigure7(rows []Row) string {
	var b strings.Builder
	b.WriteString("Figure 7: construction time vs block size, s=7 (microseconds)\n")
	b.WriteString(fmt.Sprintf("%8s%12s%12s%10s\n", "k", "Lattice", "Sorting", "ratio"))
	for _, r := range rows {
		c := r.Cells[0]
		ratio := float64(c.Sorting.Median) / float64(c.Lattice.Median)
		b.WriteString(fmt.Sprintf("%8d%12.2f%12.2f%9.2fx\n", r.K, us(c.Lattice.Median), us(c.Sorting.Median), ratio))
	}
	return b.String()
}

// Shape names a node-code variant of Figure 8.
type Shape string

// The four table-driven shapes plus the table-free walker.
const (
	ShapeA      Shape = "8(a) mod"
	ShapeB      Shape = "8(b) test"
	ShapeC      Shape = "8(c) for"
	ShapeD      Shape = "8(d) 2tab"
	ShapeWalker Shape = "walker"
)

// Shapes returns the Table 2 shapes in the paper's column order, with the
// table-free walker appended (our Section 6.2 extension column).
func Shapes() []Shape {
	return []Shape{ShapeA, ShapeB, ShapeC, ShapeD, ShapeWalker}
}

// Table2Case is one (k, s) row of Table 2.
type Table2Case struct {
	K, S int64
}

// Table2Cases returns the paper's nine (k, s) combinations.
func Table2Cases() []Table2Case {
	var cases []Table2Case
	for _, k := range []int64{4, 32, 256} {
		for _, s := range []int64{3, 15, 99} {
			cases = append(cases, Table2Case{K: k, S: s})
		}
	}
	return cases
}

// Table2Result is the measured execution time of every shape for one
// case.
type Table2Result struct {
	Case  Table2Case
	Times map[Shape]Spread
}

// Workload holds the prebuilt inputs for one processor's Table 2 sweep:
// local memory sized for exactly the requested number of owned elements
// and the gap table shapes A–C consume. ShapeD's offset tables and
// ShapeWalker's walker each cost an O(k) start scan, and only the
// Table 2 and shapes-matrix sweeps run those shapes, so they are built
// by BuildTables, not by BuildWorkload. Exported so the root benchmark
// suite can time individual shapes.
type Workload struct {
	mem         []float64
	start, last int64
	count       int64
	gaps        []int64
	offTab      *core.OffsetTable
	walker      *core.Walker
	pr          core.Problem
}

// BuildWorkload constructs the Table 2 workload for one processor.
func BuildWorkload(p, k, s, m, elems int64) (Workload, error) {
	pr := core.Problem{P: p, K: k, L: 0, S: s, M: m}
	seq, err := core.Lattice(pr)
	if err != nil {
		return Workload{}, err
	}
	if seq.Empty() {
		return Workload{}, fmt.Errorf("bench: processor %d owns nothing for k=%d s=%d", m, k, s)
	}
	last := seq.Address(elems - 1)
	return Workload{
		mem:   make([]float64, last+1),
		start: seq.StartLocal,
		last:  last,
		count: elems,
		gaps:  seq.Gaps,
		pr:    pr,
	}, nil
}

// BuildTables builds what ShapeD and ShapeWalker start from: the
// Figure 8(d) offset tables and a walker at the first owned element.
// Sweeps that time those shapes call it before timing starts; RunShape
// builds them on first use otherwise. Repeated calls are no-ops.
func (w *Workload) BuildTables() error {
	if w.offTab != nil {
		return nil
	}
	tab, err := core.OffsetTables(w.pr)
	if err != nil {
		return err
	}
	walker, ok, err := core.NewWalker(w.pr)
	if err != nil || !ok {
		return fmt.Errorf("bench: walker unavailable: %v", err)
	}
	w.offTab, w.walker = &tab, walker
	return nil
}

// RunShape executes one full sweep with the given shape and returns the
// number of stores.
func (w *Workload) RunShape(sh Shape) (int64, error) {
	switch sh {
	case ShapeA:
		return codegen.ShapeA(w.mem, w.start, w.last, w.gaps, 1.0), nil
	case ShapeB:
		return codegen.ShapeB(w.mem, w.start, w.last, w.gaps, 1.0), nil
	case ShapeC:
		return codegen.ShapeC(w.mem, w.start, w.last, w.gaps, 1.0), nil
	case ShapeD:
		if err := w.BuildTables(); err != nil {
			return 0, err
		}
		return codegen.ShapeD(w.mem, w.start, w.last, *w.offTab, 1.0), nil
	case ShapeWalker:
		if err := w.BuildTables(); err != nil {
			return 0, err
		}
		walker := *w.walker // a walk advances its walker; each sweep starts afresh
		return codegen.ShapeWalker(w.mem, w.last, &walker, 1.0), nil
	default:
		return 0, fmt.Errorf("bench: unknown shape %q", sh)
	}
}

// buildWorkloads prebuilds every processor's workload, offset tables
// and walker included: table construction is not part of the
// measurement, as in Section 6.2.
func buildWorkloads(p, k, s, elems int64) ([]Workload, error) {
	workloads := make([]Workload, p)
	for m := range workloads {
		w, err := BuildWorkload(p, k, s, int64(m), elems)
		if err == nil {
			err = w.BuildTables()
		}
		if err != nil {
			return nil, err
		}
		workloads[m] = w
	}
	return workloads, nil
}

// sweepOp runs one full sweep on a processor's workload and checks that
// it wrote every element.
func sweepOp(workloads []Workload, sweep func(w *Workload) (int64, error)) op {
	return func(proc int) error {
		w := &workloads[proc]
		n, err := sweep(w)
		if err == nil && n != w.count {
			err = fmt.Errorf("bench: sweep wrote %d of %d elements", n, w.count)
		}
		return err
	}
}

// timeShapes times every Figure 8 shape and the extra sweeps against
// each other on workloads, returning the shapes' spreads and the extras'.
func timeShapes(workloads []Workload, reps int, extra ...op) (map[Shape]Spread, []Spread, error) {
	var cells []op
	for _, sh := range Shapes() {
		cells = append(cells, sweepOp(workloads, func(w *Workload) (int64, error) { return w.RunShape(sh) }))
	}
	sp, err := timeCells(len(workloads), reps, append(cells, extra...))
	if err != nil {
		return nil, nil, err
	}
	times := make(map[Shape]Spread)
	for i, sh := range Shapes() {
		times[sh] = sp[i]
	}
	return times, sp[len(Shapes()):], nil
}

// Table2 measures the node-code sweeps: each processor assigns to elems
// section elements (the paper uses 10,000), and each case times the
// shapes against each other.
func Table2(p, elems int64, reps int) ([]Table2Result, error) {
	var results []Table2Result
	for _, tc := range Table2Cases() {
		workloads, err := buildWorkloads(p, tc.K, tc.S, elems)
		if err != nil {
			return nil, err
		}
		times, _, err := timeShapes(workloads, reps)
		if err != nil {
			return nil, err
		}
		results = append(results, Table2Result{Case: tc, Times: times})
	}
	return results, nil
}

// FormatTable2 renders the results in the paper's layout.
func FormatTable2(results []Table2Result) string {
	var b strings.Builder
	b.WriteString("Table 2: node-code execution time in microseconds (median over reps of the max over processors)\n")
	b.WriteString(fmt.Sprintf("%-14s", "Code shape"))
	for _, sh := range Shapes() {
		b.WriteString(fmt.Sprintf("%12s", sh))
	}
	b.WriteString("\n")
	for _, r := range results {
		b.WriteString(fmt.Sprintf("k=%-4d s=%-5d", r.Case.K, r.Case.S))
		for _, sh := range Shapes() {
			b.WriteString(fmt.Sprintf("%12.1f", us(r.Times[sh].Median)))
		}
		b.WriteString("\n")
	}
	return b.String()
}
