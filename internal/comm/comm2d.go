package comm

import (
	"fmt"
	"slices"

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
// Positions are pairs (t0, t1) over the destination rect in row-major
// order; the source element for position (t0, t1) is
// (srcRect[0](t_{Perm[0]}), srcRect[1](t_{Perm[1]})). Because dimensions
// are distributed independently (paper, Section 2), the 2-D transfer set
// between two grid processors is the Cartesian product of two
// one-dimensional progression intersections — the multidimensional
// problem reduces to "multiple applications of the one-dimensional case"
// for communication exactly as it does for addressing.
type Plan2D struct {
	DstGrid, SrcGrid *dist.Grid
	DstRect, SrcRect section.Rect
	Perm             [2]int // source dimension feeding each position axis

	// axis[a][qd][rd] lists the position progressions along axis a moved
	// from source dim-owner qd to destination dim-owner rd.
	axis [2][][][]section.Section

	// pos[a][qd][rd] is axis[a][qd][rd] materialized and sorted — the
	// canonical position order shared by packer and unpacker, computed
	// once at planning time so Execute allocates nothing per transfer.
	pos [2][][][]int64
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
	for a := 0; a < 2; a++ {
		if dstRect[a].Count() != srcRect[perm[a]].Count() {
			return nil, fmt.Errorf("comm: axis %d size mismatch: dst %v (%d) vs src dim %d %v (%d)",
				a, dstRect[a], dstRect[a].Count(), perm[a],
				srcRect[perm[a]], srcRect[perm[a]].Count())
		}
		if err := checkBounds(dstRect[a], dstExt[a]); err != nil {
			return nil, fmt.Errorf("comm: destination dim %d %v", a, err)
		}
		if err := checkBounds(srcRect[a], srcExt[a]); err != nil {
			return nil, fmt.Errorf("comm: source dim %d %v", a, err)
		}
	}
	p := &Plan2D{
		DstGrid: dstGrid, SrcGrid: srcGrid,
		DstRect: dstRect, SrcRect: srcRect,
		Perm: perm,
	}
	for a := 0; a < 2; a++ {
		srcDim := perm[a]
		n := dstRect[a].Count()
		nq := srcGrid.Dim(srcDim).P()
		nr := dstGrid.Dim(a).P()
		p.axis[a] = make([][][]section.Section, nq)
		srcProgs := make([][]section.Section, nq)
		for q := int64(0); q < nq; q++ {
			srcProgs[q] = OwnedPositions(srcGrid.Dim(srcDim), srcRect[srcDim], q, n)
		}
		dstProgs := make([][]section.Section, nr)
		for r := int64(0); r < nr; r++ {
			dstProgs[r] = OwnedPositions(dstGrid.Dim(a), dstRect[a], r, n)
		}
		for q := int64(0); q < nq; q++ {
			p.axis[a][q] = make([][]section.Section, nr)
			for r := int64(0); r < nr; r++ {
				for _, sp := range srcProgs[q] {
					for _, dp := range dstProgs[r] {
						if common, ok := section.Intersect(sp, dp); ok {
							p.axis[a][q][r] = append(p.axis[a][q][r], common)
						}
					}
				}
			}
		}
		p.pos[a] = make([][][]int64, nq)
		for q := int64(0); q < nq; q++ {
			p.pos[a][q] = make([][]int64, nr)
			for r := int64(0); r < nr; r++ {
				p.pos[a][q][r] = p.positions(a, q, r)
			}
		}
	}
	return p, nil
}

// positions materializes the axis-a positions moved between dim-owners q
// and r, in increasing order across progressions.
func (p *Plan2D) positions(a int, q, r int64) []int64 {
	var out []int64
	for _, pg := range p.axis[a][q][r] {
		out = append(out, pg.Slice()...)
	}
	// Progressions from distinct block offsets interleave; sort for a
	// canonical order shared by packer and unpacker.
	slices.Sort(out)
	return out
}

// Execute runs dst(dstRect) = src(srcRect) (with the plan's axis
// permutation) on the machine. The machine must have at least
// max(dst procs, src procs) processors.
func (p *Plan2D) Execute(m *machine.Machine, dst, src *hpf.Array2D) error {
	nprocs := int64(m.NProcs())
	if nprocs < p.DstGrid.Procs() || nprocs < p.SrcGrid.Procs() {
		return fmt.Errorf("comm: machine has %d procs, plan needs %d dst / %d src",
			nprocs, p.DstGrid.Procs(), p.SrcGrid.Procs())
	}
	const tag = "comm.copy2d"
	m.Run(func(proc *machine.Proc) {
		tr := telemetry.ActiveTracer()
		var t0span int64
		if tr != nil {
			t0span = tr.Now()
		}
		me := int64(proc.Rank())
		// Send: this processor as source grid member.
		if me < p.SrcGrid.Procs() {
			qc := p.SrcGrid.Coords(me)
			mem, _, cols := src.LocalMem(me)
			for r := int64(0); r < p.DstGrid.Procs(); r++ {
				rc := p.DstGrid.Coords(r)
				// q's dim-owner coordinate for axis a is qc[Perm[a]].
				t0s := p.pos[0][qc[p.Perm[0]]][rc[0]]
				t1s := p.pos[1][qc[p.Perm[1]]][rc[1]]
				if len(t0s)*len(t1s) == 0 {
					continue // empty pair: no message (the receiver skips it too)
				}
				buf := machine.GetBuf(len(t0s) * len(t1s))
				for _, t0 := range t0s {
					for _, t1 := range t1s {
						// Source element for position (t0, t1).
						var i, j int64
						if p.Perm == [2]int{0, 1} {
							i = p.SrcRect[0].Element(t0)
							j = p.SrcRect[1].Element(t1)
						} else {
							i = p.SrcRect[0].Element(t1)
							j = p.SrcRect[1].Element(t0)
						}
						li := p.SrcGrid.Dim(0).Local(i)
						lj := p.SrcGrid.Dim(1).Local(j)
						buf = append(buf, mem[li*cols+lj])
					}
				}
				proc.Send(int(r), tag, buf, nil)
			}
		}
		// Receive: this processor as destination grid member.
		if me < p.DstGrid.Procs() {
			rc := p.DstGrid.Coords(me)
			mem, _, cols := dst.LocalMem(me)
			for q := int64(0); q < p.SrcGrid.Procs(); q++ {
				qc := p.SrcGrid.Coords(q)
				t0s := p.pos[0][qc[p.Perm[0]]][rc[0]]
				t1s := p.pos[1][qc[p.Perm[1]]][rc[1]]
				if len(t0s)*len(t1s) == 0 {
					continue
				}
				msg := proc.Recv(int(q), tag)
				n := 0
				for _, t0 := range t0s {
					i := p.DstRect[0].Element(t0)
					li := p.DstGrid.Dim(0).Local(i)
					for _, t1 := range t1s {
						j := p.DstRect[1].Element(t1)
						lj := p.DstGrid.Dim(1).Local(j)
						mem[li*cols+lj] = msg.Data[n]
						n++
					}
				}
				if n != len(msg.Data) {
					panic(fmt.Sprintf("comm: 2-D unpack consumed %d of %d values", n, len(msg.Data)))
				}
				machine.PutBuf(msg.Data)
			}
		}
		if tr != nil {
			tr.EndSpan(int32(proc.Rank()), "comm.execute2d", t0span)
		}
	})
	return nil
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
