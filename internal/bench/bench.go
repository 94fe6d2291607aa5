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

// timeMaxOverProcs measures the wall time of constructing the AM table on
// every processor and returns the maximum per-processor time, repeating
// reps times and keeping the minimum of the maxima (minimum filters
// scheduler noise; maximum matches the paper's reporting).
//
// A single construction takes well under a microsecond for small k —
// below the timer's useful resolution — so each per-processor measurement
// times a batch of identical constructions, sized to the timer, and divides.
func timeMaxOverProcs(m Method, p, k, l, s int64, reps int) (time.Duration, error) {
	// Size the batch on processor 0 so one measurement window is
	// at least ~50µs.
	const window = 50 * time.Microsecond
	batch := 1
	for {
		pr := core.Problem{P: p, K: k, L: l, S: s, M: 0}
		t0 := time.Now()
		for b := 0; b < batch; b++ {
			seq, err := construct(m, pr)
			if err != nil {
				return 0, err
			}
			sink += len(seq.Gaps)
		}
		if el := time.Since(t0); el >= window || batch >= 1<<20 {
			break
		}
		batch *= 2
	}

	best := time.Duration(1<<63 - 1)
	for r := 0; r < reps; r++ {
		var worst time.Duration
		for proc := int64(0); proc < p; proc++ {
			pr := core.Problem{P: p, K: k, L: l, S: s, M: proc}
			t0 := time.Now()
			for b := 0; b < batch; b++ {
				seq, err := construct(m, pr)
				if err != nil {
					return 0, err
				}
				sink += len(seq.Gaps)
			}
			el := time.Since(t0) / time.Duration(batch)
			if el > worst {
				worst = el
			}
		}
		if worst < best {
			best = worst
		}
	}
	return best, nil
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
	Lattice, Sorting time.Duration
}

// Row is one block-size row of Table 1.
type Row struct {
	K     int64
	Cells []Cell
}

// Table1 measures the full table for p processors (the paper uses 32) and
// lower bound 0.
func Table1(p int64, reps int) ([]Row, error) {
	var rows []Row
	for _, k := range Table1Ks() {
		row := Row{K: k}
		for _, sc := range Table1Strides() {
			s := sc.Stride(k, p*k)
			lat, err := timeMaxOverProcs(MethodLattice, p, k, 0, s, reps)
			if err != nil {
				return nil, err
			}
			srt, err := timeMaxOverProcs(MethodSorting, p, k, 0, s, reps)
			if err != nil {
				return nil, err
			}
			row.Cells = append(row.Cells, Cell{Stride: sc.Label, Lattice: lat, Sorting: srt})
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable1 renders rows in the paper's layout (times in
// microseconds).
func FormatTable1(rows []Row) string {
	var b strings.Builder
	b.WriteString("Table 1: AM-table construction time in microseconds (max over processors)\n")
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
			b.WriteString(fmt.Sprintf("%11.2f%11.2f", us(c.Lattice), us(c.Sorting)))
		}
		b.WriteString("\n")
	}
	return b.String()
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// Figure7 returns the s=7 column of the Table 1 rows — the data plotted
// in the paper's Figure 7 (lattice vs sorting versus block size). It
// reads the cells Table1 measured instead of timing them again, so the
// table and the figure show one number per cell.
func Figure7(table1 []Row) []Row {
	var rows []Row
	for _, r := range table1 {
		for _, c := range r.Cells {
			if c.Stride == "s=7" {
				rows = append(rows, Row{K: r.K, Cells: []Cell{c}})
			}
		}
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
		ratio := float64(c.Sorting) / float64(c.Lattice)
		b.WriteString(fmt.Sprintf("%8d%12.2f%12.2f%9.2fx\n", r.K, us(c.Lattice), us(c.Sorting), ratio))
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
	Times map[Shape]time.Duration
}

// Workload holds the prebuilt inputs for one processor's Table 2 sweep:
// local memory sized for exactly the requested number of owned elements
// and the gap table shapes A–C consume. ShapeD's offset tables are O(k)
// and only the Table 2 and shapes-matrix sweeps run it, so they are
// built by BuildOffsetTables, not by BuildWorkload. Exported so the root
// benchmark suite can time individual shapes.
type Workload struct {
	mem         []float64
	start, last int64
	count       int64
	gaps        []int64
	offTab      *core.OffsetTable
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

// BuildOffsetTables builds the Figure 8(d) offset tables ShapeD reads.
// Sweeps that time ShapeD call it before timing starts; RunShape builds
// them on first use otherwise. Repeated calls are no-ops.
func (w *Workload) BuildOffsetTables() error {
	if w.offTab != nil {
		return nil
	}
	tab, err := core.OffsetTables(w.pr)
	if err != nil {
		return err
	}
	w.offTab = &tab
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
		if err := w.BuildOffsetTables(); err != nil {
			return 0, err
		}
		return codegen.ShapeD(w.mem, w.start, w.last, *w.offTab, 1.0), nil
	case ShapeWalker:
		walker, ok, err := core.NewWalker(w.pr)
		if err != nil || !ok {
			return 0, fmt.Errorf("bench: walker unavailable: %v", err)
		}
		return codegen.ShapeWalker(w.mem, w.last, walker, 1.0), nil
	default:
		return 0, fmt.Errorf("bench: unknown shape %q", sh)
	}
}

// Table2 measures the node-code sweeps: each processor assigns to elems
// section elements (the paper uses 10,000); the reported time per shape
// is the maximum over processors, minimized over reps repetitions.
func Table2(p, elems int64, reps int) ([]Table2Result, error) {
	var results []Table2Result
	for _, tc := range Table2Cases() {
		res := Table2Result{Case: tc, Times: make(map[Shape]time.Duration)}
		// Prebuild all workloads (table construction is not part of the
		// measurement, as in Section 6.2).
		workloads := make([]Workload, p)
		for m := int64(0); m < p; m++ {
			w, err := BuildWorkload(p, tc.K, tc.S, m, elems)
			if err == nil {
				err = w.BuildOffsetTables()
			}
			if err != nil {
				return nil, err
			}
			workloads[m] = w
		}
		for _, sh := range Shapes() {
			best := time.Duration(1<<63 - 1)
			for r := 0; r < reps; r++ {
				var worst time.Duration
				for m := range workloads {
					t0 := time.Now()
					n, err := workloads[m].RunShape(sh)
					el := time.Since(t0)
					if err != nil {
						return nil, err
					}
					if n != elems {
						return nil, fmt.Errorf("bench: shape %s wrote %d of %d elements", sh, n, elems)
					}
					if el > worst {
						worst = el
					}
				}
				if worst < best {
					best = worst
				}
			}
			res.Times[sh] = best
		}
		results = append(results, res)
	}
	return results, nil
}

// FormatTable2 renders the results in the paper's layout.
func FormatTable2(results []Table2Result) string {
	var b strings.Builder
	b.WriteString("Table 2: node-code execution time in microseconds (max over processors)\n")
	b.WriteString(fmt.Sprintf("%-14s", "Code shape"))
	for _, sh := range Shapes() {
		b.WriteString(fmt.Sprintf("%12s", sh))
	}
	b.WriteString("\n")
	for _, r := range results {
		b.WriteString(fmt.Sprintf("k=%-4d s=%-5d", r.Case.K, r.Case.S))
		for _, sh := range Shapes() {
			b.WriteString(fmt.Sprintf("%12.1f", us(r.Times[sh])))
		}
		b.WriteString("\n")
	}
	return b.String()
}
