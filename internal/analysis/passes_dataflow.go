package analysis

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/intmath"
	"repro/internal/lang/ast"
	"repro/internal/section"
)

// This file holds the communication-waste checks HPF013–HPF018. Analyze
// calls wasteWalker.visit on each statement with the symbol table as it
// stands before that statement (the forward facts) and the statement's
// entry from observations (the backward fact), then reportBudget once at
// the end. Everything here is a warning: the constructs are legal, they
// just pay for communication (or computation) nobody observes.

// wasteWalker accumulates whole-script communication totals while the
// per-statement diagnostics fire.
type wasteWalker struct {
	c           *Checker
	copyMoved   int64 // estimated elements moved by section copies/ops
	redistMoved int64 // estimated elements moved by redistributes
	heavy       *ast.Redistribute
	heavyMoved  int64
}

func (w *wasteWalker) visit(st ast.Stmt, after liveInfo) {
	switch s := st.(type) {
	case *ast.Redistribute:
		w.visitRedistribute(s, after)
	case *ast.Assign:
		w.visitAssign(s, after)
	}
	w.checkUninit(st)
}

// visitRedistribute emits HPF013 (no-op) and HPF014 (dead), and adds the
// redistribute's estimated traffic to the budget.
func (w *wasteWalker) visitRedistribute(s *ast.Redistribute, after liveInfo) {
	info := w.c.Array(s.Name)
	if info == nil || info.Rank() != 1 {
		return // HPF003/HPF008 already fired
	}
	ext := info.Extents[0]
	cur := info.Layouts[0]
	// An unknown current layout (P() == 0) and a next one that dist.New
	// rejects (HPF009) both make the resolver fail: nothing to compare.
	if next, err := s.Dist.Layout(cur.P(), ext); err == nil {
		if next == cur {
			w.c.Report(CodeNoopRedist, Warning, s.Pos(), fmt.Sprintf(
				"redundant redistribute: %s already has layout %s", s.Name, layoutStr(cur)))
			return // a no-op moves nothing and is trivially "dead" too
		}
		whole := []section.Section{{Lo: 0, Hi: ext - 1, Stride: 1}}
		moved := movedEstimate([]dist.Layout{next}, whole, []dist.Layout{cur}, whole)
		w.redistMoved += moved
		if moved > w.heavyMoved {
			w.heavy, w.heavyMoved = s, moved
		}
	}

	switch after.kind {
	case obsOverwrite:
		w.c.Report(CodeDeadRedist, Warning, s.Pos(), fmt.Sprintf(
			"dead redistribute: %s is fully overwritten at line %d before its new layout is read",
			s.Name, after.line))
	case obsRedist:
		w.c.Report(CodeDeadRedist, Warning, s.Pos(), fmt.Sprintf(
			"dead redistribute: %s is redistributed again at line %d before being read",
			s.Name, after.line))
	case obsEnd:
		w.c.Report(CodeDeadRedist, Warning, s.Pos(), fmt.Sprintf(
			"dead redistribute: %s is never read afterwards", s.Name))
	}
}

// visitAssign emits HPF015 (dead store) and HPF017 (layout suggestion)
// and adds copy traffic to the budget.
func (w *wasteWalker) visitAssign(s *ast.Assign, after liveInfo) {
	dinfo := w.c.Array(s.LHS.Name)
	dst, dstOK := resolveRef(dinfo, s.LHS)
	if !dstOK {
		return
	}
	w.checkDeadStore(after, s, dst)

	switch rhs := s.RHS.(type) {
	case *ast.Ref:
		sinfo := w.c.Array(rhs.Name)
		src, ok := resolveRef(sinfo, rhs)
		if !ok {
			return
		}
		w.copyMoved += movedEstimate(dinfo.Layouts, dst.secs, sinfo.Layouts, src.secs)
		w.suggestLayout(s, dst, dinfo, src, sinfo)
	case *ast.Transpose:
		sinfo := w.c.Array(rhs.Src.Name)
		src, ok := resolveRef(sinfo, rhs.Src)
		if !ok || len(src.secs) != 2 || len(dst.secs) != 2 {
			return
		}
		// Element (i, j) of the destination rect pairs with element
		// (j, i) of the source rect, so compare against swapped dims.
		w.copyMoved += movedEstimate(dinfo.Layouts, dst.secs,
			[]dist.Layout{sinfo.Layouts[1], sinfo.Layouts[0]},
			[]section.Section{src.secs[1], src.secs[0]})
	case *ast.Binary:
		operands := []*ast.Ref{rhs.Left}
		if r, ok := rhs.Right.(*ast.Ref); ok {
			operands = append(operands, r)
		}
		for _, op := range operands {
			sinfo := w.c.Array(op.Name)
			src, ok := resolveRef(sinfo, op)
			if !ok {
				continue
			}
			w.copyMoved += movedEstimate(dinfo.Layouts, dst.secs, sinfo.Layouts, src.secs)
		}
	}
}

// checkDeadStore fires HPF015 when every element this statement writes is
// overwritten by later writes before any read. The backward fact's
// pending list holds exactly those later writes.
func (w *wasteWalker) checkDeadStore(after liveInfo, s *ast.Assign, dst secRef) {
	switch s.RHS.(type) {
	case *ast.Scalar, *ast.Ref:
	default:
		return // keep the diagnostic to plain fills and copies
	}
	total := int64(1)
	for _, sec := range dst.secs {
		total *= sec.Count()
	}
	if total == 0 {
		return // HPF006 covers empty sections
	}
	for _, pw := range after.pending {
		if dst.coveredBy(pw.ref) {
			w.c.Report(CodeDeadStore, Warning, s.Pos(), fmt.Sprintf(
				"dead store: every element of %s is overwritten at line %d before any read",
				s.LHS, pw.line))
			return
		}
	}
}

// suggestLayout fires HPF017 for a plain copy that checkCommCost flagged
// HPF010 (same processor count, different k) when the sections are
// aligned such that redistributing the destination to the source's
// cyclic(k) makes the copy communication-free: identical strides and
// counts, and an offset that is a multiple of the source layout's period
// p·k, so corresponding elements always land on the same processor.
func (w *wasteWalker) suggestLayout(s *ast.Assign, dst secRef, dinfo *ArrayInfo, src secRef, sinfo *ArrayInfo) {
	if len(dst.secs) != 1 || len(src.secs) != 1 {
		return
	}
	dl, sl := dinfo.Layouts[0], sinfo.Layouts[0]
	if dl.P() == 0 || dl.P() != sl.P() || dl.K() == sl.K() {
		return
	}
	ds, ss := dst.secs[0], src.secs[0]
	if ds.Empty() || ss.Empty() || ds.Stride != ss.Stride || ds.Count() != ss.Count() {
		return
	}
	period := sl.RowLen()
	if (ds.Lo-ss.Lo)%period != 0 {
		return
	}
	lcm, err := intmath.LCM(dl.RowLen(), period)
	if err != nil {
		lcm = 0
	}
	msg := fmt.Sprintf(
		"redistribute %s cyclic(%d) before this copy to make it communication-free: "+
			"the sections are aligned, but cyclic(%d)/cyclic(%d) owners realign only every %d elements",
		dst.name, sl.K(), dl.K(), sl.K(), lcm)
	if lcm == 0 {
		msg = fmt.Sprintf(
			"redistribute %s cyclic(%d) before this copy to make it communication-free: "+
				"the sections are aligned but the layouts interleave", dst.name, sl.K())
	}
	w.c.Report(CodeLayoutFix, Warning, s.Pos(), msg)
}

// checkUninit fires HPF016 when a statement reads an array no element of
// which has provably been written. Table is exempt: it observes the
// layout, not the values.
func (w *wasteWalker) checkUninit(st ast.Stmt) {
	if _, ok := st.(*ast.Table); ok {
		return
	}
	reads, _ := effects(w.c.Array, st)
	seen := map[string]bool{}
	for _, r := range reads {
		if seen[r.name] {
			continue
		}
		seen[r.name] = true
		if w.c.Array(r.name).def == DefUnwritten {
			w.c.Report(CodeUninit, Warning, st.Pos(), fmt.Sprintf(
				"array %s may be read before any element has been written", r.name))
		}
	}
}

// reportBudget fires HPF018 once per script, anchored at the heaviest
// redistribute, when redistributes move more estimated traffic than all
// section copies combined. Scripts whose copies move nothing are exempt:
// with no copies to optimize for, a redistribute's cost has no baseline
// to compare against.
func (w *wasteWalker) reportBudget() {
	if w.heavy == nil || w.copyMoved <= 0 || w.redistMoved <= w.copyMoved {
		return
	}
	w.c.Report(CodeCommBudget, Warning, w.heavy.Pos(), fmt.Sprintf(
		"redistributes move an estimated %d elements but all section copies combined move %d; "+
			"layout changes dominate this script's communication", w.redistMoved, w.copyMoved))
}

// ---------------------------------------------------------------------------
// Traffic estimation.

// sampleCap bounds the per-dimension owner sampling work; beyond it the
// sampled fraction is scaled to the full element count.
const sampleCap = 4096

// coordCap guards the owner arithmetic: sections with coordinates beyond
// it (necessarily out of bounds for any plausible array, and reported by
// HPF005/HPF009) are excluded from estimates.
const coordCap = int64(1) << 40

// movedEstimate estimates how many of the paired elements of two
// equally-shaped references live on different processors — the elements a
// copy (or a redistribute, with both sections the whole array) must move.
// Dimensions are sampled independently; the aligned fraction of the whole
// rectangle is the product of the per-dimension aligned fractions, which
// is exact for the separable owner function (i/k) mod p. Returns 0 when
// any layout is unknown or the shapes disagree (other passes report
// those).
func movedEstimate(dstL []dist.Layout, dstS []section.Section, srcL []dist.Layout, srcS []section.Section) int64 {
	if len(dstL) != len(dstS) || len(srcL) != len(srcS) || len(dstL) != len(srcL) {
		return 0
	}
	total := int64(1)
	sameFrac := 1.0
	for d := range dstS {
		if dstL[d].P() == 0 || srcL[d].P() == 0 {
			return 0
		}
		a, b := dstS[d], srcS[d]
		n := min(a.Count(), b.Count())
		if n <= 0 {
			return 0
		}
		if outOfRange(a) || outOfRange(b) {
			return 0
		}
		var err error
		if total, err = intmath.MulChecked(total, n); err != nil {
			return 0
		}
		sample := min(n, sampleCap)
		same := int64(0)
		for j := int64(0); j < sample; j++ {
			if dstL[d].Owner(a.Element(j)) == srcL[d].Owner(b.Element(j)) {
				same++
			}
		}
		sameFrac *= float64(same) / float64(sample)
	}
	return int64(float64(total)*(1-sameFrac) + 0.5)
}

// outOfRange reports whether a section's coordinates exceed the estimate
// guard.
func outOfRange(s section.Section) bool {
	return s.Lo < -coordCap || s.Lo > coordCap || s.Last() < -coordCap || s.Last() > coordCap
}
