package comm

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/hpf"
	"repro/internal/machine"
	"repro/internal/section"
	"repro/internal/telemetry"
)

// Plan2D is the communication schedule of a two-dimensional array
// assignment
//
//	dst(dstRect) = src(srcRect)            (Perm = [0, 1])
//	dst(dstRect) = transpose(src(srcRect)) (Perm = [1, 0])
//
// Positions are pairs (t0, t1) over the destination rect; the source
// element for position (t0, t1) is (srcRect[0](t_{Perm[0]}),
// srcRect[1](t_{Perm[1]})). Because dimensions are distributed
// independently (paper, Section 2), the multidimensional problem
// reduces to "multiple applications of the one-dimensional case": axis
// a is the 1-D plan dst dim a ← src dim Perm[a], and the 2-D transfer
// set between two grid processors is the Cartesian product of their two
// axis transfer sets. The product is compiled once, at planning time,
// into the same strided runs the 1-D executor runs: one run per
// (axis-0 position, axis-1 run).
type Plan2D struct {
	DstGrid, SrcGrid *dist.Grid
	DstRect, SrcRect section.Rect
	Perm             [2]int // source dimension feeding each position axis

	axis           [2]*Plan  // axis[a]: dst dim a ← src dim Perm[a]
	dstExt, srcExt [2]int64  // array extents the plan was built for
	exec           *planExec // the product schedule over flat grid ranks
}

// NewPlan2D builds the schedule. perm selects the source dimension that
// varies with each destination axis: {0, 1} is a plain copy, {1, 0} a
// transpose. Counts must match axis-wise: dstRect[a].Count() ==
// srcRect[perm[a]].Count().
func NewPlan2D(dstGrid *dist.Grid, dstExt []int64, dstRect section.Rect,
	srcGrid *dist.Grid, srcExt []int64, srcRect section.Rect,
	perm [2]int) (*Plan2D, error) {
	if tr := telemetry.ActiveTracer(); tr != nil {
		defer tr.EndSpan(telemetry.HostRank, "comm.plan2d", tr.Now())
	}
	if dstGrid.Rank() != 2 || srcGrid.Rank() != 2 ||
		dstRect.Rank() != 2 || srcRect.Rank() != 2 ||
		len(dstExt) != 2 || len(srcExt) != 2 {
		return nil, fmt.Errorf("comm: Plan2D needs rank-2 grids, rects and extents")
	}
	if (perm != [2]int{0, 1}) && (perm != [2]int{1, 0}) {
		return nil, fmt.Errorf("comm: perm must be a permutation of {0,1}, got %v", perm)
	}
	p := &Plan2D{
		DstGrid: dstGrid, SrcGrid: srcGrid,
		DstRect: dstRect, SrcRect: srcRect,
		Perm:   perm,
		dstExt: [2]int64{dstExt[0], dstExt[1]},
		srcExt: [2]int64{srcExt[0], srcExt[1]},
	}
	var axes [2]*planExec
	for a := 0; a < 2; a++ {
		s := perm[a]
		ax, err := NewPlan(dstGrid.Dim(a), dstExt[a], dstRect[a],
			srcGrid.Dim(s), srcExt[s], srcRect[s])
		if err != nil {
			return nil, fmt.Errorf("%w (axis %d)", err, a)
		}
		p.axis[a], axes[a] = ax, ax.compiled()
	}
	runs := make([][][]run, srcGrid.Procs())
	for q := range runs {
		qc := srcGrid.Coords(int64(q))
		// A unit step along source dim d moves the row-major local
		// address by stride[d].
		stride := [2]int64{srcGrid.Dim(1).LocalCount(qc[1], srcExt[1]), 1}
		runs[q] = make([][]run, dstGrid.Procs())
		for r := range runs[q] {
			rc := dstGrid.Coords(int64(r))
			dstCols := dstGrid.Dim(1).LocalCount(rc[1], dstExt[1])
			// Source rank q owns axis a's positions through its
			// coordinate along source dim perm[a]. One run per (axis-0
			// position, axis-1 run), in the row-major position order of
			// the product.
			a0 := axes[0].pairs[qc[perm[0]]][rc[0]]
			a1 := axes[1].pairs[qc[perm[1]]][rc[1]]
			for _, r0 := range a0.runs {
				s0, d0 := r0.packBase, r0.unpackBase
				for range r0.n {
					for _, r1 := range a1.runs {
						runs[q][r] = append(runs[q][r], run{
							n:          r1.n,
							packBase:   s0*stride[perm[0]] + r1.packBase*stride[perm[1]],
							packStep:   r1.packStep * stride[perm[1]],
							unpackBase: d0*dstCols + r1.unpackBase,
							unpackStep: r1.unpackStep,
						})
					}
					s0 += r0.packStep
					d0 += r0.unpackStep
				}
			}
		}
	}
	p.exec = newExec(dstGrid.Procs(), runs)
	return p, nil
}

// Execute runs dst(dstRect) = src(srcRect) (with the plan's axis
// permutation) on the machine, through the same executor as a 1-D
// assignment. The arrays must have the grids and extents the plan was
// built for, and the machine must have at least max(dst procs, src
// procs) processors.
func (p *Plan2D) Execute(m *machine.Machine, dst, src *hpf.Array2D) error {
	dn0, dn1 := dst.Dims()
	sn0, sn1 := src.Dims()
	dg, sg := dst.Grid(), src.Grid()
	if dg.Dim(0) != p.DstGrid.Dim(0) || dg.Dim(1) != p.DstGrid.Dim(1) ||
		sg.Dim(0) != p.SrcGrid.Dim(0) || sg.Dim(1) != p.SrcGrid.Dim(1) ||
		p.dstExt != [2]int64{dn0, dn1} || p.srcExt != [2]int64{sn0, sn1} {
		return fmt.Errorf("comm: arrays %d×%d ← %d×%d do not match the grids and extents of the plan (%d×%d ← %d×%d)",
			dn0, dn1, sn0, sn1, p.dstExt[0], p.dstExt[1], p.srcExt[0], p.srcExt[1])
	}
	return execute(m, array2DMem{dst}, []operand{{e: p.exec, src: array2DMem{src}}})
}

// array2DMem adapts an Array2D to the executor's localMem: each rank's
// row-major local matrix, addressed as li·cols + lj.
type array2DMem struct{ a *hpf.Array2D }

func (m array2DMem) LocalMem(rank int64) []float64 {
	mem, _, _ := m.a.LocalMem(rank)
	return mem
}

// Copy2D plans and executes dst(dstRect) = src(srcRect) elementwise in
// row-major position order, reusing a cached plan when the pattern
// recurs.
func Copy2D(m *machine.Machine, dst *hpf.Array2D, dstRect section.Rect,
	src *hpf.Array2D, srcRect section.Rect) error {
	dn0, dn1 := dst.Dims()
	sn0, sn1 := src.Dims()
	plan, err := CachedPlan2D(dst.Grid(), []int64{dn0, dn1}, dstRect,
		src.Grid(), []int64{sn0, sn1}, srcRect, [2]int{0, 1})
	if err != nil {
		return err
	}
	return plan.Execute(m, dst, src)
}

// Transpose2D plans and executes dst(dstRect) = transpose(src(srcRect)):
// destination position (t0, t1) receives source element
// (srcRect[0](t1), srcRect[1](t0)).
func Transpose2D(m *machine.Machine, dst *hpf.Array2D, dstRect section.Rect,
	src *hpf.Array2D, srcRect section.Rect) error {
	dn0, dn1 := dst.Dims()
	sn0, sn1 := src.Dims()
	plan, err := CachedPlan2D(dst.Grid(), []int64{dn0, dn1}, dstRect,
		src.Grid(), []int64{sn0, sn1}, srcRect, [2]int{1, 0})
	if err != nil {
		return err
	}
	return plan.Execute(m, dst, src)
}
