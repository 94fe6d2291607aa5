package lang

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/hpf"
	"repro/internal/intmath"
	"repro/internal/lang/ast"
	"repro/internal/section"
)

// This file adds two-dimensional arrays to the mini-language:
//
//	processors Q(2,2)                                  ! a processor grid
//	array M(16,24) distribute (cyclic(2),cyclic(3)) onto Q
//	M(0:15:2, 0:23) = 1.0                              ! rect fill
//	N(0:23, 0:15) = transpose M(0:15, 0:23)            ! distributed transpose
//	N(0:7, 0:7) = M(8:15, 8:15)                        ! rect copy
//	sum M(0:15, 0:23)
//	print M(0:3, 0:3)
//
// Grid arrangements and 2-D arrays coexist with the 1-D forms; the
// interpreter dispatches on the declared name.

// execProcessors2 handles: processors Q(2,2)
func (in *Interp) execProcessors2(s *ast.Processors) error {
	if _, dup := in.gridDims[s.Name]; dup || s.Name == in.procName {
		return fmt.Errorf("processors %s already declared", s.Name)
	}
	total, err := intmath.MulChecked(s.Counts[0], s.Counts[1])
	if err != nil {
		return fmt.Errorf("processor grid %s too large: %v", s.Name, err)
	}
	// Grid layouts get their block sizes at array-declaration time; store
	// the dims for now.
	in.gridDims[s.Name] = append([]int64(nil), s.Counts...)
	in.ensureMachine(total)
	return nil
}

// ensureMachine grows the machine to at least n processors. Mailboxes are
// empty between statements, so replacing the machine is safe.
func (in *Interp) ensureMachine(n int64) {
	if in.machine == nil || int64(in.machine.NProcs()) < n {
		in.machine = newMachine(n)
	}
}

// execArray2 handles:
// array M(16,24) distribute (cyclic(2),cyclic(3)) onto Q
func (in *Interp) execArray2(s *ast.ArrayDecl) error {
	dims, ok := in.gridDims[s.Target]
	if !ok {
		return fmt.Errorf("unknown processor grid %q", s.Target)
	}
	if err := in.checkFreshName(s.Name); err != nil {
		return err
	}
	layouts := make([]dist.Layout, 2)
	for d := range s.Dists {
		l, err := s.Dists[d].Layout(dims[d], s.Extents[d])
		if err != nil {
			return err
		}
		layouts[d] = l
	}
	g, err := dist.NewGrid(layouts[0], layouts[1])
	if err != nil {
		return err
	}
	a, err := hpf.NewArray2D(g, s.Extents[0], s.Extents[1])
	if err != nil {
		return err
	}
	in.arrays2[s.Name] = a
	return nil
}

// array2 resolves a reference against the declared 2-D arrays and turns
// its subscripts into a rect (the whole array for a bare name).
func (in *Interp) array2(ref *ast.Ref) (*hpf.Array2D, section.Rect, error) {
	a, ok := in.arrays2[ref.Name]
	if !ok {
		return nil, nil, fmt.Errorf("unknown 2-D array %q", ref.Name)
	}
	n0, n1 := a.Dims()
	if ref.Whole {
		rect, _ := section.NewRect(
			section.Section{Lo: 0, Hi: n0 - 1, Stride: 1},
			section.Section{Lo: 0, Hi: n1 - 1, Stride: 1},
		)
		return a, rect, nil
	}
	if len(ref.Subs) != 2 {
		return nil, nil, fmt.Errorf("2-D reference needs 2 subscripts, got %d", len(ref.Subs))
	}
	secs := make([]section.Section, 2)
	for d, t := range ref.Subs {
		sec, err := section.New(t.Lo, t.Hi, t.Stride)
		if err != nil {
			return nil, nil, err
		}
		secs[d] = sec
	}
	rect, err := section.NewRect(secs...)
	if err != nil {
		return nil, nil, err
	}
	return a, rect, nil
}

// execAssign2 handles 2-D assignments: rect fill, rect copy, transpose.
func (in *Interp) execAssign2(s *ast.Assign) error {
	dst, dstRect, err := in.array2(s.LHS)
	if err != nil {
		return err
	}
	var src *hpf.Array2D
	var srcRect section.Rect
	transpose := false
	switch rhs := s.RHS.(type) {
	case *ast.Scalar:
		return dst.FillRect(dstRect, rhs.Val)
	case *ast.Binary:
		return fmt.Errorf("2-D assignments support fill, copy and transpose only")
	case *ast.Transpose:
		transpose = true
		src, srcRect, err = in.array2(rhs.Src)
	case *ast.Ref:
		src, srcRect, err = in.array2(rhs)
	default:
		return fmt.Errorf("unsupported expression %T", s.RHS)
	}
	if err != nil {
		return fmt.Errorf("right-hand side: %w", err)
	}
	in.ensureMachine(max(dst.Grid().Procs(), src.Grid().Procs()))
	if transpose {
		return comm.Transpose2D(in.machine, dst, dstRect, src, srcRect)
	}
	return comm.Copy2D(in.machine, dst, dstRect, src, srcRect)
}

// execSum2 handles: sum M(rect)
func (in *Interp) execSum2(ref *ast.Ref) error {
	a, rect, err := in.array2(ref)
	if err != nil {
		return err
	}
	total, err := a.SumRect(rect)
	if err != nil {
		return err
	}
	fmt.Fprintf(in.out, "sum %s%v = %s\n", ref.Name, rect,
		strconv.FormatFloat(total, 'g', -1, 64))
	return nil
}

// execPrint2 handles: print M(rect), row per first-dimension element.
func (in *Interp) execPrint2(ref *ast.Ref) error {
	a, rect, err := in.array2(ref)
	if err != nil {
		return err
	}
	n0, n1 := a.Dims()
	asc0, _ := rect[0].Ascending()
	asc1, _ := rect[1].Ascending()
	if !rect.Empty() && (asc0.Lo < 0 || asc0.Last() >= n0 || asc1.Lo < 0 || asc1.Last() >= n1) {
		return fmt.Errorf("reference %s%v outside array %dx%d", ref.Name, rect, n0, n1)
	}
	fmt.Fprintf(in.out, "%s%v =\n", ref.Name, rect)
	for _, i := range rect[0].Slice() {
		parts := make([]string, 0, rect[1].Count())
		for _, j := range rect[1].Slice() {
			parts = append(parts, strconv.FormatFloat(a.Get(i, j), 'g', -1, 64))
		}
		fmt.Fprintf(in.out, "  [%s]\n", strings.Join(parts, " "))
	}
	return nil
}
