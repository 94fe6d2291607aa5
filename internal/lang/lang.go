// Package lang implements a miniature HPF-flavored array language — the
// front end the paper's runtime routines were built to serve. A script
// declares a processor arrangement, declares distributed arrays, and
// performs section assignments; the interpreter lowers every statement
// onto the library: scalar fills run through the AM-table node code,
// array-to-array section assignments run through planned communication
// sets on the simulated machine, and redistribution re-deals the blocks.
//
// Scripts are parsed into the typed syntax tree of internal/lang/ast and
// then executed, so the interpreter shares one grammar with the static
// analyzer in internal/analysis (and with cmd/hpflint). See the ast
// package for the grammar:
//
//	processors P(4)
//	array A(320) distribute cyclic(8) onto P
//	array B(320) distribute block onto P
//	A(4:319:9) = 100.0              ! scalar fill through AM tables
//	B(0:70:2) = A(4:319:9)          ! section copy with comm sets
//	B(0:9) = A(0:9) + A(10:19)      ! elementwise expressions (+ - *)
//	B(0:9) = A(0:9) * 2.0           ! array op scalar
//	redistribute A cyclic(16)
//	print A(0:40:4)
//	sum A(4:319:9)
//	table A(4:319:9) on 1           ! show the AM table for processor 1
//	stats                           ! communication counters (and reset)
//
// Two-dimensional arrays live on processor grids (see lang2d.go):
//
//	processors Q(2,2)
//	array M(16,24) distribute (cyclic(2),cyclic(3)) onto Q
//	M(0:15:2, 0:23) = 1.0
//	N(0:23, 0:15) = transpose M(0:15, 0:23)
//
// Triplets follow Fortran 90: lo:hi:stride with inclusive bounds; the
// stride defaults to 1, and "A" alone means the whole array.
package lang

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/hpf"
	"repro/internal/lang/ast"
	"repro/internal/machine"
	"repro/internal/section"
	"repro/internal/viz"
)

// Interp holds the interpreter state across statements.
type Interp struct {
	out      *strings.Builder
	procs    int64
	procName string
	machine  *machine.Machine
	arrays   map[string]*hpf.Array
	gridDims map[string][]int64
	arrays2  map[string]*hpf.Array2D
}

// New returns a fresh interpreter.
func New() *Interp {
	return &Interp{
		out:      &strings.Builder{},
		arrays:   map[string]*hpf.Array{},
		gridDims: map[string][]int64{},
		arrays2:  map[string]*hpf.Array2D{},
	}
}

// newMachine builds a machine with n processors.
func newMachine(n int64) *machine.Machine {
	return machine.MustNew(int(n))
}

// Output returns everything print/sum/table statements have produced.
func (in *Interp) Output() string { return in.out.String() }

// Array exposes a declared array (for tests and embedding callers).
func (in *Interp) Array(name string) (*hpf.Array, bool) {
	a, ok := in.arrays[name]
	return a, ok
}

// Run parses a whole script and then executes it statement by
// statement, stopping at the first error. Both parse and runtime errors
// are annotated "line N: <stmt>: <err>".
func (in *Interp) Run(src string) error {
	script, err := ast.Parse(src)
	if err != nil {
		return err
	}
	return in.RunScript(script)
}

// RunScript executes an already-parsed script.
func (in *Interp) RunScript(script *ast.Script) error {
	for _, st := range script.Stmts {
		if err := in.ExecStmt(st); err != nil {
			return fmt.Errorf("line %d: %s: %w", st.Pos().Line, st.Text(), err)
		}
	}
	return nil
}

// Exec parses and executes a single statement. Blank lines and comments
// are no-ops.
func (in *Interp) Exec(line string) error {
	st, err := ast.ParseLine(line, 1)
	if err != nil {
		return err
	}
	if st == nil {
		return nil
	}
	return in.ExecStmt(st)
}

// ExecStmt executes one parsed statement.
func (in *Interp) ExecStmt(st ast.Stmt) error {
	switch s := st.(type) {
	case *ast.Processors:
		return in.execProcessors(s)
	case *ast.ArrayDecl:
		return in.execArrayDecl(s)
	case *ast.Redistribute:
		return in.execRedistribute(s)
	case *ast.Assign:
		return in.execAssign(s)
	case *ast.Print:
		return in.execPrint(s)
	case *ast.Sum:
		return in.execSum(s)
	case *ast.Table:
		return in.execTable(s)
	case *ast.Stats:
		return in.execStats()
	default:
		return fmt.Errorf("unsupported statement %T", st)
	}
}

// execProcessors handles flat arrangements (processors P(4)) and grids
// (processors Q(2,2)).
func (in *Interp) execProcessors(s *ast.Processors) error {
	if len(s.Counts) == 2 {
		return in.execProcessors2(s)
	}
	if in.procName != "" {
		return fmt.Errorf("flat processors already declared")
	}
	if _, dup := in.gridDims[s.Name]; dup {
		return fmt.Errorf("processors %s already declared", s.Name)
	}
	in.procs = s.Counts[0]
	in.procName = s.Name
	in.ensureMachine(in.procs)
	return nil
}

// execArrayDecl handles 1-D declarations
// (array A(320) distribute cyclic(8) onto P) and dispatches 2-D ones
// (array M(16,24) distribute (cyclic(2),cyclic(3)) onto Q).
func (in *Interp) execArrayDecl(s *ast.ArrayDecl) error {
	if in.machine == nil {
		return fmt.Errorf("declare processors first")
	}
	if len(s.Extents) == 2 {
		return in.execArray2(s)
	}
	if s.Target != in.procName {
		return fmt.Errorf("unknown processor arrangement %q", s.Target)
	}
	if err := in.checkFreshName(s.Name); err != nil {
		return err
	}
	n := s.Extents[0]
	layout, err := s.Dists[0].Layout(in.procs, n)
	if err != nil {
		return err
	}
	a, err := hpf.NewArray(layout, n)
	if err != nil {
		return err
	}
	in.arrays[s.Name] = a
	return nil
}

// checkFreshName rejects names already bound to a 1-D or 2-D array.
func (in *Interp) checkFreshName(name string) error {
	if _, dup := in.arrays[name]; dup {
		return fmt.Errorf("array %s already declared", name)
	}
	if _, dup := in.arrays2[name]; dup {
		return fmt.Errorf("array %s already declared", name)
	}
	return nil
}

// execRedistribute handles: redistribute A cyclic(16)
func (in *Interp) execRedistribute(s *ast.Redistribute) error {
	a, ok := in.arrays[s.Name]
	if !ok {
		return fmt.Errorf("unknown array %q", s.Name)
	}
	layout, err := s.Dist.Layout(in.procs, a.N())
	if err != nil {
		return err
	}
	b, err := hpf.NewArray(layout, a.N())
	if err != nil {
		return err
	}
	whole := section.Section{Lo: 0, Hi: a.N() - 1, Stride: 1}
	if err := comm.Copy(in.machine, b, whole, a, whole); err != nil {
		return err
	}
	in.arrays[s.Name] = b
	return nil
}

// array1 resolves a reference against the declared 1-D arrays and turns
// its subscript into a section (the whole array for a bare name).
func (in *Interp) array1(ref *ast.Ref) (*hpf.Array, section.Section, error) {
	a, ok := in.arrays[ref.Name]
	if !ok {
		return nil, section.Section{}, fmt.Errorf("unknown array %q", ref.Name)
	}
	if ref.Whole {
		return a, section.Section{Lo: 0, Hi: a.N() - 1, Stride: 1}, nil
	}
	if len(ref.Subs) != 1 {
		return nil, section.Section{},
			fmt.Errorf("1-D array %q takes one subscript, got %d", ref.Name, len(ref.Subs))
	}
	t := ref.Subs[0]
	sec, err := section.New(t.Lo, t.Hi, t.Stride)
	if err != nil {
		return nil, section.Section{}, err
	}
	return a, sec, nil
}

// execAssign handles scalar fills, section copies and elementwise binary
// expressions:
//
//	A(sec) = 3.0                    scalar fill
//	A(sec) = B(sec)                 section copy
//	A(sec) = B(sec) + C(sec)        elementwise array op (+ - *)
//	A(sec) = B(sec) * 2.0           array op scalar
func (in *Interp) execAssign(s *ast.Assign) error {
	if in.machine == nil {
		return fmt.Errorf("declare processors first")
	}
	if _, ok := in.arrays2[s.LHS.Name]; ok {
		return in.execAssign2(s)
	}
	dst, dstSec, err := in.array1(s.LHS)
	if err != nil {
		return err
	}
	switch rhs := s.RHS.(type) {
	case *ast.Scalar:
		return dst.FillSection(dstSec, rhs.Val)
	case *ast.Transpose:
		return fmt.Errorf("transpose requires a 2-D destination, %q is 1-D", s.LHS.Name)
	case *ast.Binary:
		return in.execBinary(dst, dstSec, rhs)
	case *ast.Ref:
		src, srcSec, err := in.array1(rhs)
		if err != nil {
			return fmt.Errorf("right-hand side %q: %w", rhs, err)
		}
		return comm.Copy(in.machine, dst, dstSec, src, srcSec)
	default:
		return fmt.Errorf("unsupported expression %T", s.RHS)
	}
}

// execBinary evaluates dst(dstSec) = left OP right, where left is an
// array reference and right is an array reference or a scalar.
func (in *Interp) execBinary(dst *hpf.Array, dstSec section.Section, e *ast.Binary) error {
	fn, ok := map[byte]comm.BinOp{
		'+': comm.Add,
		'-': func(a, b float64) float64 { return a - b },
		'*': func(a, b float64) float64 { return a * b },
	}[e.Op]
	if !ok {
		return fmt.Errorf("unknown operator %q", string(e.Op))
	}
	a, aSec, err := in.array1(e.Left)
	if err != nil {
		return fmt.Errorf("left operand %q: %w", e.Left, err)
	}

	// Array op scalar: copy then map.
	if v, ok := e.Right.(*ast.Scalar); ok {
		if err := comm.Copy(in.machine, dst, dstSec, a, aSec); err != nil {
			return err
		}
		return dst.MapSection(dstSec, func(x float64) float64 { return fn(x, v.Val) })
	}

	// Array op array.
	right := e.Right.(*ast.Ref)
	b, bSec, err := in.array1(right)
	if err != nil {
		return fmt.Errorf("right operand %q: %w", right, err)
	}
	return comm.Combine(in.machine, dst, dstSec, a, aSec, b, bSec, fn)
}

// execPrint handles: print A(0:40:4)
func (in *Interp) execPrint(s *ast.Print) error {
	if _, ok := in.arrays2[s.Ref.Name]; ok {
		return in.execPrint2(s.Ref)
	}
	a, sec, err := in.array1(s.Ref)
	if err != nil {
		return err
	}
	vals, err := a.GatherSection(sec)
	if err != nil {
		return err
	}
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	fmt.Fprintf(in.out, "%s(%v) = [%s]\n", s.Ref.Name, sec, strings.Join(parts, " "))
	return nil
}

// execSum handles: sum A(4:319:9)
func (in *Interp) execSum(s *ast.Sum) error {
	if _, ok := in.arrays2[s.Ref.Name]; ok {
		return in.execSum2(s.Ref)
	}
	a, sec, err := in.array1(s.Ref)
	if err != nil {
		return err
	}
	total, err := a.SumSection(sec)
	if err != nil {
		return err
	}
	fmt.Fprintf(in.out, "sum %s(%v) = %s\n", s.Ref.Name, sec,
		strconv.FormatFloat(total, 'g', -1, 64))
	return nil
}

// execTable handles: table A(4:319:9) on 1
func (in *Interp) execTable(s *ast.Table) error {
	a, sec, err := in.array1(s.Ref)
	if err != nil {
		return err
	}
	m := s.Proc
	asc, _ := sec.Ascending()
	if asc.Empty() {
		fmt.Fprintf(in.out, "table %s(%v) on %d: empty section\n", s.Ref.Name, sec, m)
		return nil
	}
	layout := a.Layout().Within(a.N())
	pr := core.Problem{P: layout.P(), K: layout.K(), L: asc.Lo, S: asc.Stride, M: m}
	seq, err := core.Lattice(pr)
	if err != nil {
		return err
	}
	fmt.Fprintf(in.out, "table %s(%v) on %d: %s\n", s.Ref.Name, sec, m, viz.AMTable(seq))
	return nil
}

// execStats handles: stats — print and reset the machine's communication
// counters.
func (in *Interp) execStats() error {
	if in.machine == nil {
		return fmt.Errorf("declare processors first")
	}
	total := in.machine.TotalStats()
	fmt.Fprintf(in.out, "comm: %d messages, %d values\n",
		total.MessagesSent, total.ValuesSent)
	in.machine.ResetStats()
	return nil
}
