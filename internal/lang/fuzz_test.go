package lang

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/lang/ast"
)

// FuzzExec feeds arbitrary statements to an interpreter with a prepared
// environment. Malformed input must produce errors, never panics.
func FuzzExec(f *testing.F) {
	seeds := []string{
		"processors P(4)",
		"array A(320) distribute cyclic(8) onto P",
		"A(4:319:9) = 100.0",
		"B(0:70:2) = A(4:319:9)",
		"print A(0:40:4)",
		"sum A",
		"table A(4:319:9) on 1",
		"redistribute A cyclic(16)",
		"stats",
		"processors Q(2,2)",
		"array M(8,8) distribute (cyclic(2),cyclic(2)) onto Q",
		"M(0:7, 0:7) = transpose M(0:7, 0:7)",
		"A(0:9) = A(0:9) + A(0:9)",
		"A(0:9) = A(0:9) * 2.0",
		"A(::",
		"array A(999999999999999999999) distribute cyclic(8) onto P",
		"sum A(0:-5:1)",
		"table A(0:1000000:1) on -3",
		// 2-D statements
		"array N(8,8) distribute (block,block) onto Q",
		"N(0:7, 0:7) = 3.5",
		"N(0:7, 0:7) = M(0:7, 0:7)",
		"print M(0:3, 0:3)",
		"sum M(0:7, 0:7)",
		"M(0:7) = 1.0",
		"A(0:3, 0:3) = 1.0",
		// redistribute forms, valid and malformed
		"redistribute B block",
		"redistribute M (cyclic(3),block)",
		"redistribute",
		"redistribute Z cyclic(2)",
		"redistribute A nonsense",
		// malformed triplets and refs
		"A(0:1:2:3) = 1.0",
		"A( : ) = 1.0",
		"A(0:5:0) = 1.0",
		"A(9:0:-2) = 1.0",
		"A(0: 31 :2) = 1.0",
		"A() = 1.0",
		"A(5) = 1.0",
		"A(0:4 = 1.0",
		"A(0:4) =",
		"A(0:4) = B(0:4 +",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, stmt string) {
		in := New()
		// A prepared environment so array statements have targets.
		for _, setup := range []string{
			"processors P(4)",
			"processors Q(2,2)",
			"array A(64) distribute cyclic(4) onto P",
			"array B(64) distribute cyclic(8) onto P",
			"array M(8,8) distribute (cyclic(2),cyclic(2)) onto Q",
		} {
			if err := in.Exec(setup); err != nil {
				t.Fatalf("setup %q: %v", setup, err)
			}
		}
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("statement %q panicked: %v", stmt, r)
			}
		}()
		// Bound pathological statement lengths; errors are fine.
		if len(stmt) > 200 {
			stmt = stmt[:200]
		}
		// Avoid statements that legitimately take unbounded time (huge
		// in-bounds fills are valid programs, not parser bugs).
		if strings.Contains(stmt, "999999") {
			return
		}
		_ = in.Exec(stmt)
	})
}

// FuzzAnalyzeExec is the differential contract between the static
// analyzer and the interpreter: on any input the analyzer must not
// panic, and a script the analyzer passes without error-severity
// diagnostics must execute without a runtime error. (Warnings are
// explicitly allowed to run: empty sections, all-to-all copies and dead
// redistributes are legal programs.)
func FuzzAnalyzeExec(f *testing.F) {
	seeds := []string{
		// clean
		"processors P(4)\narray A(64) distribute cyclic(4) onto P\nA = 1.0\nsum A(0:63)\n",
		// warnings only: empty section, cross-distribution copy, dead
		// redistribute, read of an unwritten array
		"processors P(2)\narray A(16) distribute cyclic(2) onto P\nA(5:4) = 1.0\nsum A\n",
		"processors P(4)\narray A(64) distribute cyclic(4) onto P\narray B(64) distribute cyclic(8) onto P\nA = 1.0\nB(0:63) = A(0:63)\nsum B(0:63)\n",
		"processors P(4)\narray A(64) distribute cyclic(4) onto P\nA = 1.0\nsum A(0:63)\nredistribute A cyclic(8)\n",
		"processors P(2)\narray A(8) distribute cyclic(2) onto P\nsum A(0:7)\n",
		// errors: out of bounds, shape mismatch, undeclared, table rank,
		// stats before any machine exists
		"processors P(2)\narray A(8) distribute cyclic(2) onto P\nA(0:50) = 1.0\n",
		"processors P(2)\narray A(8) distribute cyclic(2) onto P\nA(0:3) = A(0:5)\n",
		"sum A\n",
		"processors P(2)\narray A(8) distribute cyclic(2) onto P\nA = 1.0\ntable A(0:7) on 5\n",
		"stats\n",
		// parse error
		"processors P(2)\narray A(8 distribute cyclic(2) onto P\n",
		// 2-D: transpose, mixed layouts, partial write then read
		"processors Q(2,2)\narray M(8,8) distribute (cyclic(2),cyclic(2)) onto Q\narray N(8,8) distribute (block,block) onto Q\nM = 2.0\nN(0:7,0:7) = transpose M(0:7,0:7)\nsum N(0:7,0:7)\n",
		"processors P(4)\narray A(32) distribute cyclic(4) onto P\nA(0:15) = 1.0\nsum A(0:15)\nredistribute A cyclic(4)\n",
	}
	// Every fixture and example script is a seed too, among them the
	// HPF009 scripts whose wrapped p*k once crashed the analyzer.
	for _, pattern := range []string{"../analysis/testdata/*.hpf", "../../examples/scripts/*.hpf"} {
		paths, err := filepath.Glob(pattern)
		if err != nil || len(paths) == 0 {
			f.Fatalf("no seed scripts match %s: %v", pattern, err)
		}
		for _, path := range paths {
			src, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			seeds = append(seeds, string(src))
		}
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 2000 {
			src = src[:2000]
		}
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("analyzer or interpreter panicked on %q: %v", src, r)
			}
		}()
		diags := analysis.AnalyzeSource(src)
		if analysis.HasErrors(diags) {
			return // the analyzer rejected it; no execution promise
		}
		// Keep the execution side bounded: fuzzed inputs may declare
		// machines or arrays that are perfectly valid but enormous.
		sc, perr := ast.ParseAll(src)
		if len(perr) > 0 || len(sc.Stmts) > 64 {
			return
		}
		for _, st := range sc.Stmts {
			switch d := st.(type) {
			case *ast.Processors:
				total := int64(1)
				for _, e := range d.Counts {
					total *= e
				}
				if total > 64 {
					return
				}
			case *ast.ArrayDecl:
				total := int64(1)
				for _, e := range d.Extents {
					total *= e
				}
				if total > 1<<16 {
					return
				}
			}
		}
		if err := New().Run(src); err != nil {
			t.Fatalf("analyzer-clean script failed at runtime: %v\ndiags: %v\nscript:\n%s", err, diags, src)
		}
	})
}

// TestLintAgreesWithInterpreter pins the layout half of that contract at
// the int64 edge. The interpreter and the analyzer lower every DistSpec
// through ast.DistSpec.Layout, so a statement fails at runtime exactly
// when the analyzer reports an error on its line.
func TestLintAgreesWithInterpreter(t *testing.T) {
	scripts := map[string]string{
		"p*k = MaxInt64":          "processors P(7)\narray A(100) distribute cyclic(1317624576693539401) onto P\nA = 1.0\nsum A\n",
		"p*k = 2^63":              "processors P(2)\narray A(100) distribute cyclic(4611686018427387904) onto P\n",
		"block of MaxInt64 cells": "processors P(4)\narray A(9223372036854775807) distribute block onto P\n",
		"2-D, dim 1 overflows":    "processors Q(2,2)\narray M(8,8) distribute (cyclic(2),cyclic(4611686018427387904)) onto Q\n",
		"redistribute":            "processors P(2)\narray A(100) distribute cyclic(4) onto P\nA = 1.0\nredistribute A cyclic(4611686018427387904)\n",
	}
	for name, src := range scripts {
		sc, err := ast.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lintErr := map[int]bool{}
		for _, d := range analysis.Analyze(sc) {
			if d.Severity == analysis.Error {
				lintErr[d.Line] = true
			}
		}
		in := New()
		for _, st := range sc.Stmts {
			line := st.Pos().Line
			runErr := in.ExecStmt(st)
			if (runErr != nil) != lintErr[line] {
				t.Errorf("%s: line %d %q: runtime error %v, analyzer error %v",
					name, line, st.Text(), runErr, lintErr[line])
			}
			if runErr != nil {
				break
			}
		}
	}
}
