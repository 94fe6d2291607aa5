package hpf

import (
	"fmt"

	"repro/internal/codegen"
	"repro/internal/section"
)

// Two-dimensional section operations. HPF distributes each array
// dimension independently, so for a Rect section "the memory access
// problem simply reduces to multiple applications of the algorithm for
// the one-dimensional case" (paper, Section 2): a rank owns the product
// of its dim-0 and dim-1 shares. Both dimensions' plans come from the
// section-plan cache the 1-D ops use. The dim-0 plan's kernel walks the
// local rows a rank owns, and on each row the dim-1 plan's Figure 8
// kernel runs over that row of the rank's row-major local matrix.

// FillRect performs the multidimensional array assignment A(rect) = v.
func (a *Array2D) FillRect(rect section.Rect, v float64) error {
	return a.eachRow("FillRect", "wrote", rect, func(cols *codegen.Kernel, row []float64) int64 {
		return cols.Fill(row, v)
	})
}

// SumRect returns the sum over A(rect). Each rank adds its rows in
// ascending local order, as SumSection adds a processor's elements.
func (a *Array2D) SumRect(rect section.Rect) (float64, error) {
	var total float64
	err := a.eachRow("SumRect", "summed", rect, func(cols *codegen.Kernel, row []float64) int64 {
		part, n := cols.Sum(row)
		total += part
		return n
	})
	return total, err
}

// eachRow calls op once per owned row of A(rect), ranks in flat order
// and each rank's rows in ascending local order, with the dim-1 kernel
// and that row of the rank's local matrix. op returns the number of
// elements the kernel touched, which must be the dim-1 plan's count.
func (a *Array2D) eachRow(name, verb string, rect section.Rect, op func(cols *codegen.Kernel, row []float64) int64) error {
	if rect.Rank() != 2 {
		return fmt.Errorf("hpf: %s needs a rank-2 section, got %d", name, rect.Rank())
	}
	extents := [2]int64{a.n0, a.n1}
	var dims [2]*sectionPlans
	for d := range dims {
		sp, err := cachedSectionPlans(a.grid.Dim(d), extents[d], rect[d])
		if err != nil {
			return fmt.Errorf("%w in dimension %d", err, d)
		}
		dims[d] = sp
	}
	if dims[0] == nil || dims[1] == nil {
		return nil
	}
	var err error
	for r, mem := range a.local {
		c := a.grid.Coords(int64(r))
		rows, cols := &dims[0].plans[c[0]], &dims[1].plans[c[1]]
		if rows.start < 0 || cols.start < 0 {
			continue
		}
		width := a.localCols[r]
		rows.kernel.Walk(func(li int64) {
			n := op(&cols.kernel, mem[li*width:(li+1)*width])
			if err == nil {
				err = cols.covered(verb, n, r)
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}
