package analysis

import (
	"repro/internal/lang/ast"
	"repro/internal/section"
)

// This file holds the facts the HPF013–HPF018 checks read. A script is
// straight-line code, so both come from linear scans: the forward facts
// (each array's current layout and how much of it has been written) are
// the Checker's own symbol table as Analyze walks the script, and the
// backward facts (what next observes the array a statement writes or
// redistributes) come from one reverse scan, observations.

// ---------------------------------------------------------------------------
// Statement effects: the def/use sets both scans share.

// secRef is a resolved reference: the array name plus the normalized
// (ascending) per-dimension sections it selects. full reports whether the
// reference covers every element of the array.
type secRef struct {
	name string
	secs []section.Section
	full bool
}

// resolveRef normalizes a reference against the declared extents, or
// returns ok=false when the array is unknown, the rank mismatches, or a
// stride is zero (all reported by the statement-local checks).
func resolveRef(info *ArrayInfo, ref *ast.Ref) (secRef, bool) {
	if info == nil {
		return secRef{}, false
	}
	out := secRef{name: ref.Name}
	if ref.Whole {
		out.full = true
		for _, ext := range info.Extents {
			out.secs = append(out.secs, section.Section{Lo: 0, Hi: ext - 1, Stride: 1})
		}
		return out, true
	}
	if len(ref.Subs) != info.Rank() {
		return secRef{}, false
	}
	out.full = true
	for d, t := range ref.Subs {
		if t.Stride == 0 {
			return secRef{}, false
		}
		asc, _ := section.Section{Lo: t.Lo, Hi: t.Hi, Stride: t.Stride}.Ascending()
		out.secs = append(out.secs, asc)
		if asc.Empty() || asc.Lo != 0 || asc.Stride != 1 || asc.Last() != info.Extents[d]-1 {
			out.full = false
		}
	}
	return out, true
}

// coveredBy reports whether every element a selects is also selected by
// b (per dimension: b's stride divides a's, the alignment matches, and
// a's bounds fall inside b's). Both must already be normalized ascending.
func (a secRef) coveredBy(b secRef) bool {
	if b.full {
		return true
	}
	if len(a.secs) != len(b.secs) {
		return false
	}
	for d := range a.secs {
		as, bs := a.secs[d], b.secs[d]
		if as.Empty() {
			continue
		}
		if bs.Empty() || as.Stride%bs.Stride != 0 || (as.Lo-bs.Lo)%bs.Stride != 0 {
			return false
		}
		if as.Lo < bs.Lo || as.Last() > bs.Last() {
			return false
		}
	}
	return true
}

// effects splits one statement into the arrays it reads and writes.
// Lookup maps a name to its declaration info (nil for undeclared names,
// which are skipped — HPF003 already fired). The table statement counts
// as a read: it observes the array's layout, which is exactly what the
// dead-redistribute check must not miss.
func effects(lookup func(string) *ArrayInfo, st ast.Stmt) (reads, writes []secRef) {
	add := func(list []secRef, ref *ast.Ref) []secRef {
		if r, ok := resolveRef(lookup(ref.Name), ref); ok {
			return append(list, r)
		}
		return list
	}
	switch s := st.(type) {
	case *ast.Assign:
		writes = add(writes, s.LHS)
		switch e := s.RHS.(type) {
		case *ast.Ref:
			reads = add(reads, e)
		case *ast.Transpose:
			reads = add(reads, e.Src)
		case *ast.Binary:
			reads = add(reads, e.Left)
			if r, ok := e.Right.(*ast.Ref); ok {
				reads = add(reads, r)
			}
		}
	case *ast.Print:
		reads = add(reads, s.Ref)
	case *ast.Sum:
		reads = add(reads, s.Ref)
	case *ast.Table:
		reads = add(reads, s.Ref)
	}
	return reads, writes
}

// DefState says how much of an array has been written so far.
type DefState uint8

const (
	DefUnwritten DefState = iota // no element written yet
	DefPartial                   // some (or unknown which) elements written
	DefFull                      // every element written
)

// ---------------------------------------------------------------------------
// Backward facts: the next observation.

// obsKind classifies what happens to an array's current value and layout
// next.
type obsKind uint8

const (
	obsEnd       obsKind = iota // nothing: the script ends
	obsRead                     // some element (or the layout) is read
	obsOverwrite                // every element is overwritten first
	obsRedist                   // the array is redistributed again first
)

// liveInfo is one array's backward fact: its next observation, plus the
// writes that happen after this point with no intervening read (the kill
// set the dead-store check tests coverage against). The zero value is
// the end of the script: nothing observes the array.
type liveInfo struct {
	kind    obsKind
	line    int // line of the observing statement; 0 for obsEnd
	pending []pendingWrite
}

// pendingWrite is a later write with no read between it and the current
// program point.
type pendingWrite struct {
	ref  secRef
	line int
}

// observations scans stmts backward once. Entry i is the fact just after
// statement i for the array that statement writes (an assignment) or
// redistributes; every other entry is zero. lookup maps a name to its
// declaration info; extents never change after declaration, so one
// lookup serves the whole scan.
//
// Writes are applied before reads, so a statement that both reads and
// writes an array (A = A + 1) leaves it live. Recorded facts share their
// pending slice's backing array with the scan; that is safe because the
// scan only appends to a pending list or replaces it.
func observations(stmts []ast.Stmt, lookup func(string) *ArrayInfo) []liveInfo {
	out := make([]liveInfo, len(stmts))
	next := map[string]liveInfo{} // absent: zero, the end of the script
	for i := len(stmts) - 1; i >= 0; i-- {
		st := stmts[i]
		line := st.Pos().Line
		switch s := st.(type) {
		case *ast.Redistribute:
			out[i] = next[s.Name]
			if info := lookup(s.Name); info != nil && info.Rank() == 1 {
				// A redistribute reads every element to move it.
				next[s.Name] = liveInfo{kind: obsRedist, line: line}
			}
			continue
		case *ast.Assign:
			out[i] = next[s.LHS.Name]
		}
		reads, writes := effects(lookup, st)
		for _, w := range writes {
			v := next[w.name]
			if w.full {
				v = liveInfo{kind: obsOverwrite, line: line, pending: []pendingWrite{{ref: w, line: line}}}
			} else {
				v.pending = append(v.pending, pendingWrite{ref: w, line: line})
			}
			next[w.name] = v
		}
		for _, r := range reads {
			next[r.name] = liveInfo{kind: obsRead, line: line}
		}
	}
	return out
}
