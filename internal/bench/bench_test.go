package bench

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

func TestConstructMethods(t *testing.T) {
	pr := coreProblem(4, 8, 9, 1)
	lat, err := construct(MethodLattice, pr)
	if err != nil {
		t.Fatal(err)
	}
	srt, err := construct(MethodSorting, pr)
	if err != nil {
		t.Fatal(err)
	}
	if !lat.Equal(srt) {
		t.Error("methods disagree")
	}
	if _, err := construct(Method("bogus"), pr); err == nil {
		t.Error("unknown method should fail")
	}
}

func TestTable1Shapes(t *testing.T) {
	if ks := Table1Ks(); ks[0] != 4 || ks[len(ks)-1] != 512 || len(ks) != 8 {
		t.Errorf("Table1Ks = %v", ks)
	}
	strides := Table1Strides()
	if len(strides) != 5 {
		t.Fatalf("want 5 stride cases, got %d", len(strides))
	}
	// The k- and pk-dependent strides evaluate correctly.
	if s := strides[2].Stride(8, 256); s != 9 {
		t.Errorf("s=k+1 for k=8: %d", s)
	}
	if s := strides[3].Stride(8, 256); s != 255 {
		t.Errorf("s=pk-1: %d", s)
	}
	if s := strides[4].Stride(8, 256); s != 257 {
		t.Errorf("s=pk+1: %d", s)
	}
}

// TestTable1Small runs a miniature Table 1 (fewer processors, one rep) to
// exercise the full pipeline without taking benchmark-scale time.
func TestTable1Small(t *testing.T) {
	rows, err := Table1(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Table1Ks()) {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if len(r.Cells) != 5 {
			t.Fatalf("row k=%d has %d cells", r.K, len(r.Cells))
		}
		for _, c := range r.Cells {
			if c.Lattice.Median <= 0 || c.Sorting.Median <= 0 {
				t.Errorf("k=%d %s: nonpositive times %v/%v", r.K, c.Stride, c.Lattice, c.Sorting)
			}
		}
	}
	out := FormatTable1(rows)
	for _, want := range []string{"k=4", "k=512", "s=pk+1", "Lattice", "Sorting"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatTable1 missing %q:\n%s", want, out)
		}
	}
}

func TestFigure7Small(t *testing.T) {
	table, err := Table1(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	rows := Figure7(table)
	if len(rows) != 8 {
		t.Fatalf("got %d rows", len(rows))
	}
	// One number per cell: each point is the table's own s=7 cell.
	for i, r := range rows {
		if r.K != table[i].K || len(r.Cells) != 1 || r.Cells[0] != table[i].Cells[0] {
			t.Errorf("row %d = %+v, want the s=7 cell of %+v", i, r, table[i])
		}
	}
	out := FormatFigure7(rows)
	if !strings.Contains(out, "ratio") || !strings.Contains(out, "s=7") {
		t.Errorf("FormatFigure7 output:\n%s", out)
	}
}

func TestTable2Small(t *testing.T) {
	results, err := Table2(4, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 9 {
		t.Fatalf("got %d cases", len(results))
	}
	for _, r := range results {
		for _, sh := range Shapes() {
			if r.Times[sh].Median <= 0 {
				t.Errorf("case %+v shape %s: time %v", r.Case, sh, r.Times[sh])
			}
		}
	}
	out := FormatTable2(results)
	for _, want := range []string{"k=4", "k=256", "s=99", "8(a) mod", "walker"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatTable2 missing %q:\n%s", want, out)
		}
	}
}

func TestBuildWorkloadCounts(t *testing.T) {
	w, err := BuildWorkload(4, 8, 9, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range Shapes() {
		n, err := w.RunShape(sh)
		if err != nil {
			t.Fatal(err)
		}
		if n != 100 {
			t.Errorf("shape %s wrote %d, want 100", sh, n)
		}
	}
	if _, err := w.RunShape(Shape("bogus")); err == nil {
		t.Error("unknown shape should fail")
	}
	// A processor that owns nothing is an error for workload building.
	if _, err := BuildWorkload(4, 2, 8, 1, 10); err == nil {
		t.Error("empty processor should fail")
	}
}

// TestTimeCells: every cell of a set runs the same batch on every
// processor (one untimed call plus the timed batch per rep), and each
// spread is a positive median inside its quartiles.
func TestTimeCells(t *testing.T) {
	const procs, reps = 3, 5
	var calls [2][procs]int
	cells := []op{
		func(proc int) error { calls[0][proc]++; return nil },
		func(proc int) error {
			calls[1][proc]++
			seq, err := core.Lattice(coreProblem(4, 16, 7, int64(proc)))
			sink += len(seq.Gaps)
			return err
		},
	}
	spreads, err := timeCells(procs, reps, cells)
	if err != nil {
		t.Fatal(err)
	}
	for i, sp := range spreads {
		if sp.Q1 <= 0 || sp.Q1 > sp.Median || sp.Median > sp.Q3 || sp.Q3 > time.Second {
			t.Errorf("cell %d: implausible spread %+v", i, sp)
		}
	}
	// Processor 0 also sized the batch; the others ran only the reps.
	per := calls[0][1]
	if per%reps != 0 || per/reps < 2 {
		t.Errorf("processor 1 ran %d calls over %d reps, want reps × (batch + 1)", per, reps)
	}
	for c := range calls {
		for proc := 1; proc < procs; proc++ {
			if calls[c][proc] != per {
				t.Errorf("cell %d processor %d ran %d calls, want %d (one batch per set)", c, proc, calls[c][proc], per)
			}
		}
	}
	fail := errors.New("cell failed")
	if _, err := timeCells(procs, reps, []op{func(int) error { return fail }}); !errors.Is(err, fail) {
		t.Errorf("a failing cell returned %v, want %v", err, fail)
	}
	if _, err := timeCells(procs, 0, cells); err == nil {
		t.Error("reps 0 should fail")
	}
}

// coreProblem is shorthand for building test problems.
func coreProblem(p, k, s, m int64) core.Problem {
	return core.Problem{P: p, K: k, L: 0, S: s, M: m}
}
