package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeScript(t *testing.T, script string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "s.hpf")
	if err := os.WriteFile(path, []byte(script), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLintCleanScript(t *testing.T) {
	path := writeScript(t, "processors P(2)\narray A(10) distribute cyclic(2) onto P\nA = 1.0\nsum A\n")
	var out, errOut strings.Builder
	if code := run([]string{path}, nil, &out, &errOut); code != 0 {
		t.Fatalf("clean script: exit %d, stderr %q", code, errOut.String())
	}
	if out.String() != "" {
		t.Errorf("clean script should print nothing, got %q", out.String())
	}
}

func TestLintErrorsExitNonzero(t *testing.T) {
	path := writeScript(t, "processors P(2)\narray A(10) distribute cyclic(2) onto P\nA(0:50) = 1.0\n")
	var out, errOut strings.Builder
	if code := run([]string{path}, nil, &out, &errOut); code != 1 {
		t.Fatalf("script with errors: exit %d, want 1", code)
	}
	got := out.String()
	if !strings.Contains(got, "error[HPF005]") {
		t.Errorf("missing HPF005 diagnostic: %q", got)
	}
	if !strings.HasPrefix(got, path+":3:1:") {
		t.Errorf("diagnostic not prefixed with file:line:col: %q", got)
	}
}

func TestLintWarningsExitZero(t *testing.T) {
	path := writeScript(t, "processors P(2)\narray A(10) distribute cyclic(2) onto P\nA(5:4) = 1.0\n")
	var out, errOut strings.Builder
	if code := run([]string{path}, nil, &out, &errOut); code != 0 {
		t.Fatalf("warnings only: exit %d, want 0", code)
	}
	if !strings.Contains(out.String(), "warning[HPF006]") {
		t.Errorf("missing HPF006 warning: %q", out.String())
	}
}

func TestLintStdin(t *testing.T) {
	var out, errOut strings.Builder
	in := strings.NewReader("bogus\n")
	if code := run([]string{"-"}, in, &out, &errOut); code != 1 {
		t.Fatalf("stdin with syntax error: exit %d, want 1", code)
	}
	if !strings.Contains(out.String(), "<stdin>:1:1: error[HPF001]") {
		t.Errorf("stdin diagnostic wrong: %q", out.String())
	}
}

func TestLintJSON(t *testing.T) {
	path := writeScript(t, "processors P(2)\narray A(10) distribute cyclic(2) onto P\nA(0:50) = 1.0\nA(5:4) = 1.0\n")
	var out, errOut strings.Builder
	if code := run([]string{"-json", path}, nil, &out, &errOut); code != 1 {
		t.Fatalf("json run: exit %d, want 1", code)
	}
	var diags []struct {
		File     string `json:"file"`
		Code     string `json:"code"`
		Severity string `json:"severity"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal([]byte(out.String()), &diags); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if len(diags) != 2 {
		t.Fatalf("want 2 diagnostics, got %v", diags)
	}
	if diags[0].Code != "HPF005" || diags[0].Severity != "error" || diags[0].Line != 3 {
		t.Errorf("first diagnostic wrong: %+v", diags[0])
	}
	if diags[1].Code != "HPF006" || diags[1].Severity != "warning" {
		t.Errorf("second diagnostic wrong: %+v", diags[1])
	}
	if diags[0].File != path {
		t.Errorf("file field wrong: %+v", diags[0])
	}
}

func TestLintJSONClean(t *testing.T) {
	path := writeScript(t, "processors P(2)\narray A(10) distribute cyclic(2) onto P\n")
	var out, errOut strings.Builder
	if code := run([]string{"-json", path}, nil, &out, &errOut); code != 0 {
		t.Fatalf("clean json run: exit %d", code)
	}
	if strings.TrimSpace(out.String()) != "[]" {
		t.Errorf("clean -json output should be [], got %q", out.String())
	}
}

func TestLintMultipleFiles(t *testing.T) {
	good := writeScript(t, "processors P(2)\narray A(10) distribute cyclic(2) onto P\n")
	bad := writeScript(t, "bogus\n")
	var out, errOut strings.Builder
	if code := run([]string{good, bad}, nil, &out, &errOut); code != 1 {
		t.Fatalf("mixed files: exit %d, want 1", code)
	}
	if !strings.Contains(out.String(), bad+":1:1:") {
		t.Errorf("bad file not reported: %q", out.String())
	}
}

func TestLintUsageAndIOErrors(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(nil, nil, &out, &errOut); code != 2 {
		t.Errorf("no args: exit %d, want 2", code)
	}
	if code := run([]string{"/nonexistent/x.hpf"}, nil, &out, &errOut); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
}

// TestLintContinuesPastReadErrors: an unreadable file is reported but
// the other files are still linted; the run still exits 2.
func TestLintContinuesPastReadErrors(t *testing.T) {
	bad := writeScript(t, "A(0:50) = 1.0\n")
	var out, errOut strings.Builder
	code := run([]string{"/nonexistent/x.hpf", bad}, nil, &out, &errOut)
	if code != 2 {
		t.Fatalf("exit %d, want 2 (I/O error wins)", code)
	}
	if !strings.Contains(errOut.String(), "hpflint:") {
		t.Errorf("read error not reported: %q", errOut.String())
	}
	if !strings.Contains(out.String(), bad+":1:1:") {
		t.Errorf("remaining file was not linted: %q", out.String())
	}
}

// TestLintDeterministicOrder: diagnostics across files sort by
// (file, line, col, code) regardless of argument order.
func TestLintDeterministicOrder(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.hpf")
	b := filepath.Join(dir, "b.hpf")
	for path, src := range map[string]string{a: "bogus\n", b: "bogus\n"} {
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out1, out2, errOut strings.Builder
	if code := run([]string{b, a}, nil, &out1, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if code := run([]string{a, b}, nil, &out2, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if out1.String() != out2.String() {
		t.Errorf("output depends on argument order:\n%q\n%q", out1.String(), out2.String())
	}
	if !strings.HasPrefix(out1.String(), a+":") {
		t.Errorf("diagnostics not sorted by file: %q", out1.String())
	}
}

func TestLintSARIF(t *testing.T) {
	path := writeScript(t, "processors P(2)\narray A(10) distribute cyclic(2) onto P\nA(0:50) = 1.0\n")
	var out, errOut strings.Builder
	if code := run([]string{"-sarif", path}, nil, &out, &errOut); code != 1 {
		t.Fatalf("sarif run: exit %d, want 1", code)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Results []struct {
				RuleID string `json:"ruleId"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(out.String()), &log); err != nil {
		t.Fatalf("not valid SARIF JSON: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 || len(log.Runs[0].Results) != 1 {
		t.Fatalf("unexpected SARIF shape: %s", out.String())
	}
	if log.Runs[0].Results[0].RuleID != "HPF005" {
		t.Errorf("ruleId = %q, want HPF005", log.Runs[0].Results[0].RuleID)
	}
}

// TestLintSARIFEveryScript lints each analysis fixture and example
// script with -sarif: the exit status must be 1 exactly when the
// script's golden holds an error (scripts without a golden lint clean or
// with warnings only), and the output must be valid JSON.
func TestLintSARIFEveryScript(t *testing.T) {
	var scripts []string
	for _, pattern := range []string{"../../internal/analysis/testdata/*.hpf", "../../examples/scripts/*.hpf"} {
		matches, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		scripts = append(scripts, matches...)
	}
	if len(scripts) < 20 {
		t.Fatalf("found only %d scripts", len(scripts))
	}
	for _, script := range scripts {
		want := 0
		if golden, err := os.ReadFile(strings.TrimSuffix(script, ".hpf") + ".golden"); err == nil &&
			strings.Contains(string(golden), "error[") {
			want = 1
		}
		var out, errOut strings.Builder
		if code := run([]string{"-sarif", script}, nil, &out, &errOut); code != want {
			t.Errorf("%s: exit %d, want %d (stderr %q)", script, code, want, errOut.String())
		}
		if !json.Valid([]byte(out.String())) {
			t.Errorf("%s: invalid SARIF:\n%s", script, out.String())
		}
	}
}

func TestLintFix(t *testing.T) {
	src := `processors P(4)
array A(64) distribute cyclic(4) onto P
A = 1.0
redistribute A cyclic(4)
sum A(0:63)
`
	path := writeScript(t, src)
	var out, errOut strings.Builder
	if code := run([]string{"-fix", path}, nil, &out, &errOut); code != 0 {
		t.Fatalf("fix run: exit %d, stderr %q", code, errOut.String())
	}
	if strings.Contains(out.String(), "redistribute A cyclic(4)") &&
		!strings.Contains(out.String(), "! hpflint -fix") {
		t.Errorf("no-op redistribute not removed:\n%s", out.String())
	}
	if !strings.Contains(errOut.String(), "fixed [HPF013]") {
		t.Errorf("fix not reported on stderr: %q", errOut.String())
	}
	// The rewritten script must lint clean.
	fixedPath := writeScript(t, out.String())
	var out2, errOut2 strings.Builder
	if code := run([]string{fixedPath}, nil, &out2, &errOut2); code != 0 || out2.String() != "" {
		t.Errorf("fixed script not clean: exit %d, %q", code, out2.String())
	}
}

func TestLintFlagExclusivity(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-json", "-sarif", "x.hpf"}, nil, &out, &errOut); code != 2 {
		t.Errorf("-json -sarif together: exit %d, want 2", code)
	}
	if code := run([]string{"-fix", "a.hpf", "b.hpf"}, nil, &out, &errOut); code != 2 {
		t.Errorf("-fix with two files: exit %d, want 2", code)
	}
}
