package analysis

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lang/ast"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGolden runs the analyzer over every fixture script in testdata and
// compares the rendered diagnostics against the matching .golden file.
// Each diagnostic code has a fixture named after it, plus clean.hpf
// which must produce no output. Refresh with: go test -run Golden -update
func TestGolden(t *testing.T) {
	scripts, err := filepath.Glob(filepath.Join("testdata", "*.hpf"))
	if err != nil {
		t.Fatal(err)
	}
	if len(scripts) == 0 {
		t.Fatal("no fixture scripts found")
	}
	for _, script := range scripts {
		name := strings.TrimSuffix(filepath.Base(script), ".hpf")
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(script)
			if err != nil {
				t.Fatal(err)
			}
			var sb strings.Builder
			for _, d := range AnalyzeSource(string(src)) {
				sb.WriteString(d.String())
				sb.WriteByte('\n')
			}
			got := sb.String()
			goldenPath := strings.TrimSuffix(script, ".hpf") + ".golden"
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("diagnostics diverged from %s\ngot:\n%s\nwant:\n%s",
					goldenPath, got, want)
			}
		})
	}
}

// TestFixturesCoverEveryCode guards the fixture suite itself: every
// diagnostic code must be exercised by the fixture named after it.
func TestFixturesCoverEveryCode(t *testing.T) {
	codes := map[string]string{
		CodeSyntax:          "hpf001_syntax.hpf",
		CodeUndeclaredProcs: "hpf002_undeclared_procs.hpf",
		CodeUndeclaredArray: "hpf003_undeclared_array.hpf",
		CodeRedeclared:      "hpf004_redeclared.hpf",
		CodeBounds:          "hpf005_bounds.hpf",
		CodeEmptySection:    "hpf006_empty_section.hpf",
		CodeNegativeStride:  "hpf007_negative_stride.hpf",
		CodeShape:           "hpf008_shape.hpf",
		CodeOverflow:        "hpf009_overflow.hpf",
		CodeAllToAll:        "hpf010_alltoall.hpf",
		CodeZeroStride:      "hpf011_zero_stride.hpf",
		CodeTableProc:       "hpf012_table_proc.hpf",
		CodeNoopRedist:      "hpf013_noop_redist.hpf",
		CodeDeadRedist:      "hpf014_dead_redist.hpf",
		CodeDeadStore:       "hpf015_dead_store.hpf",
		CodeUninit:          "hpf016_uninit.hpf",
		CodeLayoutFix:       "hpf017_layout_fix.hpf",
		CodeCommBudget:      "hpf018_comm_budget.hpf",
	}
	for code, fixture := range codes {
		src, err := os.ReadFile(filepath.Join("testdata", fixture))
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, d := range AnalyzeSource(string(src)) {
			if d.Code == code {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("fixture %s never triggers %s", fixture, code)
		}
	}
}

// TestNegativeFixturesAreClean guards the dataflow passes against false
// positives: each *_clean.hpf fixture must produce no diagnostics at all.
func TestNegativeFixturesAreClean(t *testing.T) {
	scripts, err := filepath.Glob(filepath.Join("testdata", "*_clean.hpf"))
	if err != nil {
		t.Fatal(err)
	}
	if len(scripts) < 6 {
		t.Fatalf("expected a negative fixture per dataflow code, found %v", scripts)
	}
	for _, script := range scripts {
		src, err := os.ReadFile(script)
		if err != nil {
			t.Fatal(err)
		}
		if diags := AnalyzeSource(string(src)); len(diags) != 0 {
			t.Errorf("%s should be clean, got %v", script, diags)
		}
	}
}

// TestRulesCoverEveryCode keeps the Rules metadata in sync with the code
// constants: every code a fixture exercises must have a rules entry.
func TestRulesCoverEveryCode(t *testing.T) {
	byCode := map[string]Rule{}
	for _, r := range Rules() {
		byCode[r.Code] = r
	}
	for i := 1; i <= 18; i++ {
		code := fmt.Sprintf("HPF%03d", i)
		if _, ok := byCode[code]; !ok {
			t.Errorf("Rules() missing %s", code)
		}
	}
	if len(byCode) != 18 {
		t.Errorf("Rules() has %d entries, want 18", len(byCode))
	}
}

func analyze(t *testing.T, src string) []Diagnostic {
	t.Helper()
	sc, err := ast.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return Analyze(sc)
}

// withCode filters diagnostics to one code, for tests that probe a
// single pass against scripts other passes also have opinions about.
func withCode(diags []Diagnostic, code string) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if d.Code == code {
			out = append(out, d)
		}
	}
	return out
}

// TestDistributionTracking shows the commcost lint consulting the
// *current* layout: a copy that is all-to-all before a redistribute is
// clean after it, and vice versa.
func TestDistributionTracking(t *testing.T) {
	diags := withCode(analyze(t, `
processors P(4)
array A(64) distribute cyclic(8) onto P
array B(64) distribute cyclic(8) onto P
B(0:9) = A(0:9)
redistribute B cyclic(2)
B(0:9) = A(0:9)
`), CodeAllToAll)
	if len(diags) != 1 {
		t.Fatalf("want exactly 1 HPF010, got %v", diags)
	}
	if diags[0].Line != 7 {
		t.Errorf("want HPF010 at line 7 (after redistribute), got %v", diags[0])
	}
}

// TestBlockAndCyclicResolve checks that block and cyclic specs resolve
// to concrete cyclic(k) layouts for the layout-sensitive passes.
func TestBlockAndCyclicResolve(t *testing.T) {
	// block over 4 procs of 64 cells is cyclic(16); cyclic is cyclic(1):
	// both differ from cyclic(16)? no — A block == C cyclic(16) matches.
	diags := withCode(analyze(t, `
processors P(4)
array A(64) distribute block onto P
array B(64) distribute cyclic onto P
array C(64) distribute cyclic(16) onto P
C(0:9) = A(0:9)
B(0:9) = A(0:9)
`), CodeAllToAll)
	if len(diags) != 1 {
		t.Fatalf("want 1 HPF010, got %v", diags)
	}
	if diags[0].Line != 7 {
		t.Errorf("want HPF010 on the block->cyclic copy only, got %v", diags[0])
	}
}

// TestDistributionTracking2D checks the Layout-per-dimension path: a 2-D
// copy whose layouts agree in one dimension and disagree in the other is
// flagged only for the mismatched dimension, and unknown layouts (grid
// never declared) suppress the check dimension-wise.
func TestDistributionTracking2D(t *testing.T) {
	diags := withCode(analyze(t, `
processors Q(2,2)
array M(8,12) distribute (cyclic(2),cyclic(3)) onto Q
array N(8,12) distribute (cyclic(4),cyclic(3)) onto Q
M = 1.0
N(0:7, 0:11) = M(0:7, 0:11)
sum N(0:7, 0:11)
`), CodeAllToAll)
	if len(diags) != 1 {
		t.Fatalf("want exactly 1 HPF010, got %v", diags)
	}
	if diags[0].Line != 6 || !strings.Contains(diags[0].Message, "(dim 0)") {
		t.Errorf("want HPF010 on dim 0 of the copy, got %v", diags[0])
	}

	// U's grid R is never declared: both of U's layouts are unknown, so
	// the copy into U must produce no layout-sensitive diagnostics even
	// though M's layouts are fully known.
	diags = analyze(t, `
processors Q(2,2)
array M(8,12) distribute (cyclic(2),cyclic(3)) onto Q
array U(8,12) distribute (cyclic(2),cyclic(3)) onto R
M = 1.0
U(0:7, 0:11) = M(0:7, 0:11)
sum U(0:7, 0:11)
`)
	for _, d := range diags {
		if d.Code != CodeUndeclaredProcs {
			t.Errorf("unknown-grid script should only report HPF002, got %v", d)
		}
	}
}

// TestCascadeSuppression: one unknown array should not drown the report
// in follow-on diagnostics from other passes.
func TestCascadeSuppression(t *testing.T) {
	diags := analyze(t, `
processors P(4)
array A(64) distribute cyclic(4) onto P
A(0:9) = Z(0:9)
`)
	if len(diags) != 1 || diags[0].Code != CodeUndeclaredArray {
		t.Errorf("want a single HPF003, got %v", diags)
	}
}

// TestUnknownLayoutSkipsLayoutChecks: arrays on unknown arrangements
// still get bounds checks, but no layout-sensitive diagnostics.
func TestUnknownLayoutSkipsLayoutChecks(t *testing.T) {
	diags := analyze(t, `
array A(64) distribute cyclic(4) onto P
A(0:99) = 1.0
table A(0:9) on 99
`)
	var codes []string
	for _, d := range diags {
		codes = append(codes, d.Code)
	}
	want := []string{CodeUndeclaredProcs, CodeBounds}
	if strings.Join(codes, ",") != strings.Join(want, ",") {
		t.Errorf("want %v, got %v", want, diags)
	}
}

func TestHasErrors(t *testing.T) {
	if HasErrors([]Diagnostic{{Severity: Warning}}) {
		t.Error("warnings alone are not errors")
	}
	if !HasErrors([]Diagnostic{{Severity: Warning}, {Severity: Error}}) {
		t.Error("error severity not detected")
	}
	if HasErrors(nil) {
		t.Error("empty list has no errors")
	}
}

// TestAnalyzeSourceMixesParseAndSemantic: syntax errors and semantic
// diagnostics interleave in line order.
func TestAnalyzeSourceMixesParseAndSemantic(t *testing.T) {
	diags := AnalyzeSource(`processors P(4)
array A(10) distribute cyclic(2) onto P
bogus
A(0:50) = 1.0
`)
	if len(diags) != 2 {
		t.Fatalf("want 2 diagnostics, got %v", diags)
	}
	if diags[0].Code != CodeSyntax || diags[0].Line != 3 {
		t.Errorf("want HPF001 at line 3, got %v", diags[0])
	}
	if diags[1].Code != CodeBounds || diags[1].Line != 4 {
		t.Errorf("want HPF005 at line 4, got %v", diags[1])
	}
}

// TestDiagnosticString pins the rendering used by hpflint and goldens.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Code: CodeBounds, Severity: Error, Line: 3, Col: 1, Message: "m"}
	if got := d.String(); got != "3:1: error[HPF005]: m" {
		t.Errorf("String() = %q", got)
	}
}
