package analysis

import (
	"errors"
	"fmt"

	"repro/internal/dist"
	"repro/internal/intmath"
	"repro/internal/lang/ast"
	"repro/internal/section"
)

// checkDecls reports undeclared and redeclared processors and arrays
// (HPF002–HPF004), and redistribute statements targeting 2-D arrays
// (HPF008).
func checkDecls(c *Checker, st ast.Stmt) {
	switch s := st.(type) {
	case *ast.Processors:
		if len(s.Counts) == 1 {
			if c.flatName != "" {
				c.Report(CodeRedeclared, Error, s.Pos(), fmt.Sprintf(
					"flat processors already declared as %s(%d)", c.flatName, c.flatP))
			} else if _, isGrid := c.grids[s.Name]; isGrid {
				c.Report(CodeRedeclared, Error, s.Pos(), fmt.Sprintf(
					"processors %s already declared", s.Name))
			}
			return
		}
		if _, dup := c.grids[s.Name]; dup || s.Name == c.flatName {
			c.Report(CodeRedeclared, Error, s.Pos(), fmt.Sprintf(
				"processors %s already declared", s.Name))
		}
	case *ast.ArrayDecl:
		if prev := c.arrays[s.Name]; prev != nil {
			c.Report(CodeRedeclared, Error, s.Pos(), fmt.Sprintf(
				"array %s already declared at line %d", s.Name, prev.DeclPos.Line))
		}
		if len(s.Extents) == 1 {
			switch {
			case c.flatName == "":
				c.Report(CodeUndeclaredProcs, Error, s.Pos(), fmt.Sprintf(
					"array %s declared before any flat processor arrangement", s.Name))
			case s.Target != c.flatName:
				c.Report(CodeUndeclaredProcs, Error, s.Pos(), fmt.Sprintf(
					"unknown processor arrangement %q", s.Target))
			}
			return
		}
		if _, ok := c.grids[s.Target]; !ok {
			c.Report(CodeUndeclaredProcs, Error, s.Pos(), fmt.Sprintf(
				"unknown processor grid %q", s.Target))
		}
	case *ast.Redistribute:
		info := c.arrays[s.Name]
		switch {
		case info == nil:
			c.Report(CodeUndeclaredArray, Error, s.Pos(), fmt.Sprintf(
				"unknown array %q", s.Name))
		case info.Rank() != 1:
			c.Report(CodeShape, Error, s.Pos(), fmt.Sprintf(
				"redistribute supports only 1-D arrays; %s is %d-D", s.Name, info.Rank()))
		}
	case *ast.Stats:
		// The interpreter refuses stats before any machine exists; a
		// clean analysis must imply a clean run.
		if c.flatName == "" && len(c.grids) == 0 {
			c.Report(CodeUndeclaredProcs, Error, s.Pos(),
				"stats before any processors declaration")
		}
	default:
		for _, ref := range ast.Refs(st) {
			if c.arrays[ref.Name] == nil {
				c.Report(CodeUndeclaredArray, Error, st.Pos(), fmt.Sprintf(
					"unknown array %q", ref.Name))
			}
		}
	}
}

// dimLabel names a subscript position in a diagnostic: empty for 1-D
// arrays, " (dim N)" for 2-D ones.
func dimLabel(rank, d int) string {
	if rank == 1 {
		return ""
	}
	return fmt.Sprintf(" (dim %d)", d)
}

// checkBounds reports zero strides (HPF011), descending sections
// (HPF007), empty sections (HPF006), sections outside the declared
// extent (HPF005) and table statements naming processors outside the
// arrangement (HPF012).
func checkBounds(c *Checker, st ast.Stmt) {
	for _, ref := range ast.Refs(st) {
		info := c.arrays[ref.Name]
		if info == nil || ref.Whole || len(ref.Subs) != info.Rank() {
			continue
		}
		for d, t := range ref.Subs {
			lbl := dimLabel(info.Rank(), d)
			if t.Stride == 0 {
				c.Report(CodeZeroStride, Error, st.Pos(), fmt.Sprintf(
					"zero stride in section %s of %s%s", t, ref.Name, lbl))
				continue
			}
			sec := section.Section{Lo: t.Lo, Hi: t.Hi, Stride: t.Stride}
			if t.Stride < 0 {
				c.Report(CodeNegativeStride, Warning, st.Pos(), fmt.Sprintf(
					"section %s of %s%s has a negative stride; traversal order is reversed",
					t, ref.Name, lbl))
			}
			if sec.Empty() {
				c.Report(CodeEmptySection, Warning, st.Pos(), fmt.Sprintf(
					"section %s of %s%s selects no elements", t, ref.Name, lbl))
				continue
			}
			asc, _ := sec.Ascending()
			if asc.Lo < 0 || asc.Last() >= info.Extents[d] {
				c.Report(CodeBounds, Error, st.Pos(), fmt.Sprintf(
					"section %s outside %s%s extent [0, %d)", t, ref.Name, lbl, info.Extents[d]))
			}
		}
	}
	if s, ok := st.(*ast.Table); ok {
		info := c.arrays[s.Ref.Name]
		if info != nil && info.Rank() == 1 {
			if p := info.Layouts[0].P(); p > 0 && (s.Proc < 0 || s.Proc >= p) {
				c.Report(CodeTableProc, Error, s.Pos(), fmt.Sprintf(
					"table processor %d outside arrangement of %d processors", s.Proc, p))
			}
		}
	}
}

// refCounts resolves a reference to its per-dimension element counts.
// ok is false when the array is unknown, the rank mismatches, or a
// stride is zero (all reported by other checks).
func (c *Checker) refCounts(ref *ast.Ref) ([]int64, bool) {
	info := c.arrays[ref.Name]
	if info == nil {
		return nil, false
	}
	if ref.Whole {
		return append([]int64(nil), info.Extents...), true
	}
	if len(ref.Subs) != info.Rank() {
		return nil, false
	}
	counts := make([]int64, len(ref.Subs))
	for d, t := range ref.Subs {
		if t.Stride == 0 {
			return nil, false
		}
		counts[d] = section.Section{Lo: t.Lo, Hi: t.Hi, Stride: t.Stride}.Count()
	}
	return counts, true
}

// checkShape reports rank and element-count non-conformance (HPF008):
// references with the wrong number of subscripts, copies and elementwise
// operations whose sides select different element counts, transposes
// whose rects do not match transposed, and 2-D assignments using
// unsupported expression forms.
func checkShape(c *Checker, st ast.Stmt) {
	for _, ref := range ast.Refs(st) {
		info := c.arrays[ref.Name]
		if info != nil && !ref.Whole && len(ref.Subs) != info.Rank() {
			c.Report(CodeShape, Error, st.Pos(), fmt.Sprintf(
				"array %s is %d-D but reference %s has %d subscripts",
				ref.Name, info.Rank(), ref, len(ref.Subs)))
		}
	}
	switch s := st.(type) {
	case *ast.Table:
		if info := c.arrays[s.Ref.Name]; info != nil && info.Rank() != 1 {
			c.Report(CodeShape, Error, s.Pos(), fmt.Sprintf(
				"table supports only 1-D arrays; %s is %d-D", s.Ref.Name, info.Rank()))
		}
	case *ast.Assign:
		dstInfo := c.arrays[s.LHS.Name]
		if dstInfo == nil {
			return
		}
		dstCounts, dstOK := c.refCounts(s.LHS)
		switch rhs := s.RHS.(type) {
		case *ast.Ref:
			srcInfo := c.arrays[rhs.Name]
			if srcInfo == nil {
				return
			}
			if srcInfo.Rank() != dstInfo.Rank() {
				c.Report(CodeShape, Error, s.Pos(), fmt.Sprintf(
					"cannot assign %d-D %s to %d-D %s",
					srcInfo.Rank(), rhs.Name, dstInfo.Rank(), s.LHS.Name))
				return
			}
			c.checkConforming(s, s.LHS, dstCounts, dstOK, rhs)
		case *ast.Transpose:
			srcInfo := c.arrays[rhs.Src.Name]
			if srcInfo == nil {
				return
			}
			if dstInfo.Rank() != 2 || srcInfo.Rank() != 2 {
				c.Report(CodeShape, Error, s.Pos(), "transpose requires 2-D arrays on both sides")
				return
			}
			srcCounts, srcOK := c.refCounts(rhs.Src)
			if dstOK && srcOK &&
				(dstCounts[0] != srcCounts[1] || dstCounts[1] != srcCounts[0]) {
				c.Report(CodeShape, Error, s.Pos(), fmt.Sprintf(
					"non-conforming transpose: %s selects %dx%d but transpose %s supplies %dx%d",
					s.LHS, dstCounts[0], dstCounts[1], rhs.Src, srcCounts[1], srcCounts[0]))
			}
		case *ast.Binary:
			if dstInfo.Rank() != 1 {
				c.Report(CodeShape, Error, s.Pos(),
					"2-D assignments support fill, copy and transpose only")
				return
			}
			c.checkConforming(s, s.LHS, dstCounts, dstOK, rhs.Left)
			if r, ok := rhs.Right.(*ast.Ref); ok {
				c.checkConforming(s, s.LHS, dstCounts, dstOK, r)
			}
		}
	}
}

// checkConforming reports an HPF008 when src selects a different element
// count than the destination in any dimension.
func (c *Checker) checkConforming(st ast.Stmt, dst *ast.Ref, dstCounts []int64, dstOK bool, src *ast.Ref) {
	srcInfo := c.arrays[src.Name]
	if srcInfo == nil || !dstOK {
		return
	}
	srcCounts, ok := c.refCounts(src)
	if !ok || len(srcCounts) != len(dstCounts) {
		return
	}
	for d := range dstCounts {
		if dstCounts[d] != srcCounts[d] {
			c.Report(CodeShape, Error, st.Pos(), fmt.Sprintf(
				"non-conforming assignment%s: %s selects %d elements but %s selects %d",
				dimLabel(len(dstCounts), d), dst, dstCounts[d], src, srcCounts[d]))
		}
	}
}

// checkOverflow guards the lattice parameters the AM-table machinery
// computes with: p·k at declaration and redistribution time, and
// pk·s + l for every subscripted reference (HPF009). These are exactly
// the products the paper's O(k) table construction forms from a section
// l:u:s on a cyclic(k) layout over p processors.
func checkOverflow(c *Checker, st ast.Stmt) {
	switch s := st.(type) {
	case *ast.ArrayDecl:
		procs := c.declProcs(s)
		if procs == nil {
			return
		}
		for d, spec := range s.Dists {
			if k, ok := overflowK(spec, procs[d], s.Extents[d]); ok {
				c.Report(CodeOverflow, Error, s.Pos(), fmt.Sprintf(
					"p*k = %d*%d%s overflows int64", procs[d], k,
					dimLabel(len(s.Dists), d)))
			}
		}
	case *ast.Redistribute:
		info := c.arrays[s.Name]
		if info == nil || info.Rank() != 1 {
			return
		}
		p := info.Layouts[0].P() // 0 when unknown, which never overflows
		if k, ok := overflowK(s.Dist, p, info.Extents[0]); ok {
			c.Report(CodeOverflow, Error, s.Pos(), fmt.Sprintf(
				"p*k = %d*%d overflows int64", p, k))
		}
	default:
		for _, ref := range ast.Refs(st) {
			info := c.arrays[ref.Name]
			if info == nil || ref.Whole || len(ref.Subs) != info.Rank() {
				continue
			}
			for d, t := range ref.Subs {
				pk := info.Layouts[d].RowLen()
				if pk == 0 {
					continue // unknown, or rejected at the declaration
				}
				pks, err := intmath.MulChecked(pk, t.Stride)
				if err != nil {
					c.Report(CodeOverflow, Error, st.Pos(), fmt.Sprintf(
						"lattice parameter pk*s = %d*%d in %s%s overflows int64",
						pk, t.Stride, ref.Name, dimLabel(info.Rank(), d)))
					continue
				}
				if _, err := intmath.AddChecked(pks, t.Lo); err != nil {
					c.Report(CodeOverflow, Error, st.Pos(), fmt.Sprintf(
						"lattice parameter pk*s + l = %d + %d in %s%s overflows int64",
						pks, t.Lo, ref.Name, dimLabel(info.Rank(), d)))
				}
			}
		}
	}
}

// overflowK reports whether ast.DistSpec.Layout rejects spec on p
// processors for an n-cell dimension because p·k overflows, and if so
// the k it tried (block's is ceil(n/p)), which HPF009's message names.
func overflowK(spec ast.DistSpec, p, n int64) (int64, bool) {
	if _, err := spec.Layout(p, n); !errors.Is(err, intmath.ErrOverflow) {
		return 0, false
	}
	if spec.Kind == ast.DistBlock {
		return intmath.CeilDiv(n, p), true
	}
	return spec.K, true
}

// layoutStr renders a layout for HPF010 messages.
func layoutStr(l dist.Layout) string {
	return fmt.Sprintf("cyclic(%d) on %d procs", l.K(), l.P())
}

// checkCommCost flags section assignments between incompatible cyclic(k)
// layouts (HPF010, warning): when source and destination disagree on p
// or k, every destination block draws from many source processors, so
// the planned communication degenerates toward all-to-all. The check
// uses the analyzer's *current* layout for each array, i.e. the result
// of any earlier redistribute.
func checkCommCost(c *Checker, st ast.Stmt) {
	s, ok := st.(*ast.Assign)
	if !ok {
		return
	}
	dst := c.arrays[s.LHS.Name]
	if dst == nil {
		return
	}
	compare := func(srcName string, src *ArrayInfo, dstDim, srcDim int, verb string) {
		a, b := dst.Layouts[dstDim], src.Layouts[srcDim]
		if a.P() > 0 && b.P() > 0 && a != b {
			c.Report(CodeAllToAll, Warning, s.Pos(), fmt.Sprintf(
				"%s from %s [%s] to %s [%s]%s forces all-to-all communication",
				verb, srcName, layoutStr(b), s.LHS.Name, layoutStr(a),
				dimLabel(dst.Rank(), dstDim)))
		}
	}
	switch rhs := s.RHS.(type) {
	case *ast.Ref:
		src := c.arrays[rhs.Name]
		if src == nil || src.Rank() != dst.Rank() {
			return
		}
		for d := range dst.Layouts {
			compare(rhs.Name, src, d, d, "copy")
		}
	case *ast.Binary:
		if dst.Rank() != 1 {
			return
		}
		operands := []*ast.Ref{rhs.Left}
		if r, ok := rhs.Right.(*ast.Ref); ok {
			operands = append(operands, r)
		}
		for _, op := range operands {
			src := c.arrays[op.Name]
			if src == nil || src.Rank() != 1 {
				continue
			}
			compare(op.Name, src, 0, 0, "elementwise op")
		}
	case *ast.Transpose:
		src := c.arrays[rhs.Src.Name]
		if src == nil || src.Rank() != 2 || dst.Rank() != 2 {
			return
		}
		compare(rhs.Src.Name, src, 0, 1, "transpose")
		compare(rhs.Src.Name, src, 1, 0, "transpose")
	}
}
