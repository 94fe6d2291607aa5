// Package analysis is a static analyzer for mini-HPF scripts. It walks
// the typed syntax tree of internal/lang/ast — the same tree the
// interpreter executes — and reports, before anything runs:
//
//   - undeclared or redeclared processors and arrays (HPF002–HPF004)
//   - sections outside the declared extents (HPF005)
//   - empty sections, descending sections and zero strides
//     (HPF006, HPF007, HPF011)
//   - shape non-conformance in copies, elementwise ops and transposes
//     (HPF008)
//   - int64 overflow in the lattice parameters p·k and pk·s + l that the
//     AM-table machinery computes with (HPF009)
//   - section copies between incompatible cyclic(k) layouts, which force
//     all-to-all communication (HPF010)
//   - table statements naming processors outside the arrangement (HPF012)
//   - communication and computation nobody observes: redundant and dead
//     redistributes, dead stores, reads before any write, layout
//     suggestions and the whole-script communication budget
//     (HPF013–HPF018)
//
// The analyzer tracks the *current* distribution of every array across
// redistribute statements, so layout-sensitive checks apply to the
// layout an array will actually have when a statement runs. Layouts are
// dist.Layout values lowered by ast.DistSpec.Layout, the resolver the
// interpreter uses too; a layout dist.New rejects gets HPF009 and is
// unknown to every later check, which skips it.
//
// Analyze walks a script once, in order, running every check on each
// statement before the symbol table absorbs it; the waste checks also
// read what next observes each write from one backward scan made first.
package analysis

import (
	"sort"

	"repro/internal/dist"
	"repro/internal/lang/ast"
)

// ArrayInfo is the symbol-table entry for a declared array.
type ArrayInfo struct {
	Name    string
	DeclPos ast.Pos
	Extents []int64 // per-dimension sizes; len is the rank (1 or 2)
	// Layouts holds each dimension's current distribution, lowered by
	// ast.DistSpec.Layout. The zero value (P() == 0) means unknown: the
	// arrangement is unknown or dist.New rejected the layout, and
	// layout-sensitive checks skip it.
	Layouts []dist.Layout
	def     DefState // how much has been written so far
}

// Rank returns the array's dimensionality.
func (a *ArrayInfo) Rank() int { return len(a.Extents) }

// Checker carries the symbol table and accumulated diagnostics while
// Analyze walks a script.
type Checker struct {
	diags    []Diagnostic
	flatName string
	flatP    int64
	grids    map[string][]int64
	arrays   map[string]*ArrayInfo
}

// Report appends a diagnostic at pos.
func (c *Checker) Report(code string, sev Severity, pos ast.Pos, msg string) {
	c.diags = append(c.diags, Diagnostic{
		Code: code, Severity: sev, Line: pos.Line, Col: pos.Col, Message: msg,
	})
}

// Array returns the symbol-table entry for name, or nil.
func (c *Checker) Array(name string) *ArrayInfo { return c.arrays[name] }

// Analyze checks a parsed script and returns the diagnostics sorted by
// position. Each statement is checked against the symbol table as it
// stands before that statement, then absorbed into it.
func Analyze(sc *ast.Script) []Diagnostic {
	c := &Checker{
		grids:  map[string][]int64{},
		arrays: map[string]*ArrayInfo{},
	}
	w := &wasteWalker{c: c}
	after := observations(sc.Stmts, firstDecls(sc.Stmts))
	for i, st := range sc.Stmts {
		checkDecls(c, st)
		checkBounds(c, st)
		checkShape(c, st)
		checkOverflow(c, st)
		checkCommCost(c, st)
		w.visit(st, after[i])
		c.track(st)
	}
	w.reportBudget()
	sortDiags(c.diags)
	return c.diags
}

// firstDecls maps each array name to the extents of its first
// declaration anywhere in the script, so a read before the declaration
// still counts as an observation.
func firstDecls(stmts []ast.Stmt) func(string) *ArrayInfo {
	decls := map[string]*ArrayInfo{}
	for _, st := range stmts {
		if d, ok := st.(*ast.ArrayDecl); ok && decls[d.Name] == nil {
			decls[d.Name] = &ArrayInfo{Name: d.Name, Extents: d.Extents}
		}
	}
	return func(name string) *ArrayInfo { return decls[name] }
}

// AnalyzeSource parses src (collecting every line's syntax error as an
// HPF001 diagnostic) and analyzes the statements that did parse.
func AnalyzeSource(src string) []Diagnostic {
	sc, perrs := ast.ParseAll(src)
	diags := make([]Diagnostic, 0, len(perrs))
	for _, pe := range perrs {
		diags = append(diags, Diagnostic{
			Code: CodeSyntax, Severity: Error,
			Line: pe.Pos.Line, Col: pe.Pos.Col, Message: pe.Msg,
		})
	}
	diags = append(diags, Analyze(sc)...)
	sortDiags(diags)
	return diags
}

func sortDiags(diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		if diags[i].Line != diags[j].Line {
			return diags[i].Line < diags[j].Line
		}
		if diags[i].Col != diags[j].Col {
			return diags[i].Col < diags[j].Col
		}
		return diags[i].Code < diags[j].Code
	})
}

// track updates the symbol table with a statement's declarations,
// redistributions and writes. It is the only code that changes an
// array's layout or definedness, and it never reports; checkDecls does.
func (c *Checker) track(st ast.Stmt) {
	switch s := st.(type) {
	case *ast.Processors:
		if len(s.Counts) == 1 {
			if c.flatName == "" {
				if _, isGrid := c.grids[s.Name]; !isGrid {
					c.flatName = s.Name
					c.flatP = s.Counts[0]
				}
			}
			return
		}
		if _, dup := c.grids[s.Name]; !dup && s.Name != c.flatName {
			c.grids[s.Name] = append([]int64(nil), s.Counts...)
		}
	case *ast.ArrayDecl:
		if _, dup := c.arrays[s.Name]; dup {
			return
		}
		info := &ArrayInfo{
			Name:    s.Name,
			DeclPos: s.Pos(),
			Extents: append([]int64(nil), s.Extents...),
			Layouts: make([]dist.Layout, len(s.Extents)),
		}
		if procs := c.declProcs(s); procs != nil {
			for d := range s.Dists {
				info.Layouts[d], _ = s.Dists[d].Layout(procs[d], s.Extents[d])
			}
		}
		c.arrays[s.Name] = info
	case *ast.Redistribute:
		info := c.arrays[s.Name]
		if info == nil || info.Rank() != 1 {
			return
		}
		// An unknown layout (P() == 0) stays unknown, and one dist.New
		// rejects (HPF009) becomes unknown: both leave the zero Layout.
		info.Layouts[0], _ = s.Dist.Layout(info.Layouts[0].P(), info.Extents[0])
	default:
		_, writes := effects(c.Array, st)
		for _, w := range writes {
			info := c.arrays[w.name]
			if w.full {
				info.def = DefFull
			} else if info.def == DefUnwritten {
				info.def = DefPartial
			}
		}
	}
}

// declProcs returns the per-dimension processor counts a declaration
// lands on, or nil when the target arrangement is unknown.
func (c *Checker) declProcs(s *ast.ArrayDecl) []int64 {
	if len(s.Extents) == 1 {
		if c.flatName != "" && s.Target == c.flatName {
			return []int64{c.flatP}
		}
		return nil
	}
	if dims, ok := c.grids[s.Target]; ok {
		return dims
	}
	return nil
}
