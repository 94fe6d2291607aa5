// Package ast defines the typed syntax tree for the mini-HPF script
// language of internal/lang, plus a line-oriented parser producing it.
//
// The grammar is one statement per line ("!" starts a comment):
//
//	processors P(4)                 processors Q(2,2)
//	array A(320) distribute cyclic(8) onto P
//	array M(16,24) distribute (cyclic(2),cyclic(3)) onto Q
//	A(4:319:9) = 100.0              ! scalar fill
//	B(0:70:2) = A(4:319:9)          ! section copy
//	B(0:9) = A(0:9) + A(10:19)      ! elementwise (+ - *), array or scalar rhs
//	N(0:23, 0:15) = transpose M(0:15, 0:23)
//	redistribute A cyclic(16)
//	print A(0:40:4)
//	sum A(4:319:9)
//	table A(4:319:9) on 1
//	stats
//
// The same tree feeds two consumers: lang.Interp executes it and
// internal/analysis checks it. Every node carries its source position so
// both runtime errors and lint diagnostics can point at the offending
// statement.
package ast

import (
	"fmt"
	"strings"

	"repro/internal/dist"
)

// Pos is a 1-based source position.
type Pos struct {
	Line, Col int
}

// String renders the position as "line:col".
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Stmt is one script statement. Every statement knows its position and
// its trimmed source text (for error messages of the form
// "line N: <stmt>: <err>").
type Stmt interface {
	Pos() Pos
	Text() string
	stmtNode()
}

// stmtBase carries the position and source text shared by all statements.
type stmtBase struct {
	pos  Pos
	text string
}

func (b stmtBase) Pos() Pos     { return b.pos }
func (b stmtBase) Text() string { return b.text }
func (b stmtBase) stmtNode()    {}

// Script is a parsed script: the statements in source order, blank lines
// and comments dropped.
type Script struct {
	Stmts []Stmt
}

// Processors declares a flat arrangement (one count) or a grid (two).
type Processors struct {
	stmtBase
	Name   string
	Counts []int64
}

// DistKind discriminates the three distribution spellings.
type DistKind int

const (
	DistBlock   DistKind = iota // block
	DistCyclic                  // cyclic
	DistCyclicK                 // cyclic(k)
)

// DistSpec is one dimension's distribution. K is meaningful only for
// DistCyclicK.
type DistSpec struct {
	Kind DistKind
	K    int64
}

// String renders the spec in source syntax.
func (d DistSpec) String() string {
	switch d.Kind {
	case DistBlock:
		return "block"
	case DistCyclic:
		return "cyclic"
	default:
		return fmt.Sprintf("cyclic(%d)", d.K)
	}
}

// Layout lowers the spec onto p processors for an n-cell dimension:
// block is cyclic(ceil(n/p)), cyclic is cyclic(1). It is the one place a
// DistSpec becomes a layout, so the interpreter and the analyzer agree
// on every layout, and on every one dist.New rejects (an error wrapping
// intmath.ErrOverflow when p·k does not fit in an int64).
func (d DistSpec) Layout(p, n int64) (dist.Layout, error) {
	switch d.Kind {
	case DistBlock:
		return dist.Block(p, n)
	case DistCyclic:
		return dist.Cyclic(p)
	default:
		return dist.New(p, d.K)
	}
}

// ArrayDecl declares a distributed array. Extents and Dists have the
// same length: 1 for flat arrays, 2 for grid arrays.
type ArrayDecl struct {
	stmtBase
	Name    string
	Extents []int64
	Dists   []DistSpec
	Target  string // processor arrangement or grid name
}

// Redistribute re-deals a 1-D array onto a new layout.
type Redistribute struct {
	stmtBase
	Name string
	Dist DistSpec
}

// Triplet is a Fortran-90 subscript triplet lo:hi[:stride] with inclusive
// bounds; the stride defaults to 1.
type Triplet struct {
	Lo, Hi, Stride int64
}

// String renders the triplet in canonical lo:hi:stride form.
func (t Triplet) String() string {
	return fmt.Sprintf("%d:%d:%d", t.Lo, t.Hi, t.Stride)
}

// Ref is an array reference: a bare NAME (Whole == true, the entire
// array) or NAME(triplet[, triplet]).
type Ref struct {
	RefPos Pos
	Name   string
	Subs   []Triplet
	Whole  bool
}

// String renders the reference in canonical form.
func (r *Ref) String() string {
	if r.Whole {
		return r.Name
	}
	parts := make([]string, len(r.Subs))
	for i, t := range r.Subs {
		parts[i] = t.String()
	}
	return fmt.Sprintf("%s(%s)", r.Name, strings.Join(parts, ", "))
}

// Expr is the right-hand side of an assignment: *Scalar, *Ref, *Binary
// or *Transpose.
type Expr interface {
	exprNode()
}

// Scalar is a floating-point literal.
type Scalar struct {
	Val float64
}

// Binary is an elementwise expression LEFT op RIGHT; Right is a *Ref or
// a *Scalar.
type Binary struct {
	Op    byte // '+', '-' or '*'
	Left  *Ref
	Right Expr
}

// Transpose is "transpose REF" (2-D arrays only).
type Transpose struct {
	Src *Ref
}

func (*Scalar) exprNode()    {}
func (*Ref) exprNode()       {}
func (*Binary) exprNode()    {}
func (*Transpose) exprNode() {}

// Assign is LHS = RHS.
type Assign struct {
	stmtBase
	LHS *Ref
	RHS Expr
}

// Print is "print REF".
type Print struct {
	stmtBase
	Ref *Ref
}

// Sum is "sum REF".
type Sum struct {
	stmtBase
	Ref *Ref
}

// Table is "table REF on PROC".
type Table struct {
	stmtBase
	Ref  *Ref
	Proc int64
}

// Stats is the bare "stats" statement.
type Stats struct {
	stmtBase
}

// Refs returns every array reference a statement contains, left to
// right. Declarations and stats have none.
func Refs(st Stmt) []*Ref {
	switch s := st.(type) {
	case *Assign:
		out := []*Ref{s.LHS}
		switch e := s.RHS.(type) {
		case *Ref:
			out = append(out, e)
		case *Transpose:
			out = append(out, e.Src)
		case *Binary:
			out = append(out, e.Left)
			if r, ok := e.Right.(*Ref); ok {
				out = append(out, r)
			}
		}
		return out
	case *Print:
		return []*Ref{s.Ref}
	case *Sum:
		return []*Ref{s.Ref}
	case *Table:
		return []*Ref{s.Ref}
	}
	return nil
}

// ParseError is a syntax error with its source position and the trimmed
// statement text.
type ParseError struct {
	Pos  Pos
	Stmt string
	Msg  string
}

// Error implements error in the interpreter's "line N: <stmt>: <err>"
// shape.
func (e *ParseError) Error() string {
	if e.Stmt == "" {
		return fmt.Sprintf("line %d: %s", e.Pos.Line, e.Msg)
	}
	return fmt.Sprintf("line %d: %s: %s", e.Pos.Line, e.Stmt, e.Msg)
}
