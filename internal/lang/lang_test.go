package lang

import (
	"strings"
	"testing"
)

func TestPaperScript(t *testing.T) {
	in := New()
	script := `
! the paper's running example
processors P(4)
array A(320) distribute cyclic(8) onto P
A(0:319:1) = 0.0
A(4:319:9) = 100.0
table A(4:319:9) on 1
print A(4:40:9)
sum A(4:319:9)
`
	if err := in.Run(script); err != nil {
		t.Fatal(err)
	}
	out := in.Output()
	if !strings.Contains(out, "AM = [3, 12, 15, 12, 3, 12, 3, 12]") {
		t.Errorf("paper AM table missing:\n%s", out)
	}
	if !strings.Contains(out, "A(4:40:9) = [100 100 100 100 100]") {
		t.Errorf("print output wrong:\n%s", out)
	}
	// 36 section elements, all 100.
	if !strings.Contains(out, "sum A(4:319:9) = 3600") {
		t.Errorf("sum output wrong:\n%s", out)
	}
}

func TestSectionCopyAcrossDistributions(t *testing.T) {
	in := New()
	script := `
processors P(4)
array A(320) distribute cyclic(8) onto P
array B(320) distribute cyclic(5) onto P
A(0:319:1) = 7.0
B(0:319:1) = 0.0
B(0:70:2) = A(4:319:9)
sum B(0:319:1)
`
	if err := in.Run(script); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(in.Output(), "sum B(0:319:1) = 252") { // 36 * 7
		t.Errorf("copy sum wrong:\n%s", in.Output())
	}
	b, ok := in.Array("B")
	if !ok {
		t.Fatal("B missing")
	}
	if b.Get(0) != 7 || b.Get(2) != 7 || b.Get(1) != 0 {
		t.Errorf("copy landed wrong: B(0)=%v B(1)=%v B(2)=%v",
			b.Get(0), b.Get(1), b.Get(2))
	}
}

func TestRedistributeStatement(t *testing.T) {
	in := New()
	script := `
processors P(4)
array A(128) distribute cyclic(8) onto P
A(0:127:1) = 1.0
A(0:127:2) = 2.0
redistribute A cyclic(2)
sum A(0:127:1)
`
	if err := in.Run(script); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(in.Output(), "sum A(0:127:1) = 192") { // 64*2 + 64*1
		t.Errorf("redistribute broke contents:\n%s", in.Output())
	}
	a, _ := in.Array("A")
	if a.Layout().K() != 2 {
		t.Errorf("layout not changed: %v", a.Layout())
	}
}

func TestBlockAndCyclicSpecs(t *testing.T) {
	in := New()
	script := `
processors P(3)
array A(90) distribute block onto P
array B(90) distribute cyclic onto P
A(0:89:1) = 1.0
B(0:89:1) = 2.0
sum A(0:89:1)
sum B(0:89:1)
`
	if err := in.Run(script); err != nil {
		t.Fatal(err)
	}
	a, _ := in.Array("A")
	if a.Layout().K() != 30 {
		t.Errorf("block layout K = %d, want 30", a.Layout().K())
	}
	b, _ := in.Array("B")
	if b.Layout().K() != 1 {
		t.Errorf("cyclic layout K = %d, want 1", b.Layout().K())
	}
}

func TestWholeArrayAndDefaultStride(t *testing.T) {
	in := New()
	if err := in.Run(`
processors P(2)
array A(10) distribute cyclic(2) onto P
A = 5.0
print A(0:3)
`); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(in.Output(), "A(0:3:1) = [5 5 5 5]") {
		t.Errorf("default stride output wrong:\n%s", in.Output())
	}
}

func TestDescendingSection(t *testing.T) {
	in := New()
	if err := in.Run(`
processors P(2)
array A(20) distribute cyclic(3) onto P
A = 0.0
A(19:1:-3) = 4.0
print A(19:1:-3)
`); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(in.Output(), "A(19:1:-3) = [4 4 4 4 4 4 4]") {
		t.Errorf("descending output wrong:\n%s", in.Output())
	}
}

func TestErrors(t *testing.T) {
	cases := []struct {
		script string
		want   string
	}{
		{"array A(10) distribute cyclic(2) onto P", "processors first"},
		{"processors P(4)\nprocessors Q(2)", "already declared"},
		{"processors P(0)", "invalid processor count"},
		{"processors P(4)\nbogus stuff", "unknown statement"},
		{"processors P(4)\narray A(10) distribute weird onto P", "unknown distribution"},
		{"processors P(4)\narray A(10) distribute cyclic(2) onto Q", "unknown processor arrangement"},
		{"processors P(4)\nA(0:5) = 1.0", `unknown array "A"`},
		{"processors P(4)\narray A(10) distribute cyclic(2) onto P\nA(0:5:0) = 1.0", "zero stride"},
		{"processors P(4)\narray A(10) distribute cyclic(2) onto P\narray A(10) distribute cyclic(2) onto P", "already declared"},
		{"processors P(4)\narray A(10) distribute cyclic(2) onto P\nA(0:50) = 1.0", "outside array"},
		{"processors P(4)\narray A(10) distribute cyclic(2) onto P\nA(0:5) = B(0:5)", `unknown array "B"`},
		{"processors P(4)\narray A(10) distribute cyclic(2) onto P\nprint A(0:1:2:3)", "malformed triplet"},
		{"processors P(4)\narray A(10) distribute cyclic(2) onto P\ntable A(0:5) on x", "invalid processor"},
		{"processors P(-2)", "invalid processor count"},
	}
	for _, c := range cases {
		err := New().Run(c.script)
		if err == nil {
			t.Errorf("script %q should fail", c.script)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("script %q: error %q does not contain %q", c.script, err, c.want)
		}
	}
}

func TestErrorsCarryLineNumbers(t *testing.T) {
	err := New().Run("processors P(2)\n\nbogus")
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error %v should mention line 3", err)
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	in := New()
	if err := in.Run("! nothing\n\n   \nprocessors P(2) ! trailing comment\n"); err != nil {
		t.Fatal(err)
	}
}

func TestTableEmptySection(t *testing.T) {
	in := New()
	if err := in.Run(`
processors P(2)
array A(10) distribute cyclic(2) onto P
table A(5:4:1) on 0
`); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(in.Output(), "empty section") {
		t.Errorf("empty-section table output wrong:\n%s", in.Output())
	}
}

func TestTableEmptyProcessor(t *testing.T) {
	in := New()
	if err := in.Run(`
processors P(4)
array A(64) distribute cyclic(2) onto P
table A(3:63:8) on 0
`); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(in.Output(), "no section elements") {
		t.Errorf("expected empty AM table message:\n%s", in.Output())
	}
}

// TestTableBlockLongerThanArray: with k > n the whole array is rank 0's
// first block, so the AM table is cyclic(n)'s: at most n entries, not
// the 10⁶ of cyclic(10⁶).
func TestTableBlockLongerThanArray(t *testing.T) {
	in := New()
	if err := in.Run(`
processors P(7)
array A(100) distribute cyclic(1000000) onto P
table A(0:99) on 0
`); err != nil {
		t.Fatal(err)
	}
	out := in.Output()
	am := out[strings.Index(out, "AM = [")+len("AM = ["):]
	am = am[:strings.Index(am, "]")]
	if !strings.Contains(out, "start=0 (local 0)") || strings.Count(am, ",")+1 > 100 {
		t.Errorf("table for a 100-element array should start at 0 with at most 100 entries; got %d bytes:\n%.200s",
			len(out), out)
	}
}

func TestBinaryArrayExpression(t *testing.T) {
	in := New()
	script := `
processors P(3)
array A(60) distribute cyclic(4) onto P
array B(60) distribute cyclic(7) onto P
array C(60) distribute block onto P
A = 2.0
B = 5.0
C(0:59:1) = A(0:59:1) + B(0:59:1)
sum C
C(0:29:1) = A(0:58:2) * B(59:1:-2)
sum C(0:29:1)
`
	if err := in.Run(script); err != nil {
		t.Fatal(err)
	}
	out := in.Output()
	if !strings.Contains(out, "sum C(0:59:1) = 420") { // 60 * 7
		t.Errorf("array+array sum wrong:\n%s", out)
	}
	if !strings.Contains(out, "sum C(0:29:1) = 300") { // 30 * 10
		t.Errorf("array*array sum wrong:\n%s", out)
	}
}

// TestBinaryExpressionAliasesDestination: an array statement reads its
// whole right-hand side before it stores (Fortran 90), so a destination
// that overlaps both operands sees only their old values.
func TestBinaryExpressionAliasesDestination(t *testing.T) {
	in := New()
	script := `
processors P(3)
array A(12) distribute cyclic(2) onto P
A = 1.0
A(0:11:2) = 2.0
A(1:10:1) = A(0:9:1) + A(2:11:1)
print A(0:11:1)
`
	if err := in.Run(script); err != nil {
		t.Fatal(err)
	}
	if want := "A(0:11:1) = [2 4 2 4 2 4 2 4 2 4 2 1]\n"; in.Output() != want {
		t.Errorf("got %q, want %q", in.Output(), want)
	}
}

func TestBinaryScalarExpression(t *testing.T) {
	in := New()
	script := `
processors P(2)
array A(20) distribute cyclic(3) onto P
array B(20) distribute cyclic(5) onto P
A = 4.0
B(0:19:1) = A(0:19:1) * 2.5
sum B
B(0:19:1) = A(0:19:1) - 1.0
sum B
`
	if err := in.Run(script); err != nil {
		t.Fatal(err)
	}
	out := in.Output()
	if !strings.Contains(out, "sum B(0:19:1) = 200") { // 20 * 10
		t.Errorf("array*scalar wrong:\n%s", out)
	}
	if !strings.Contains(out, "sum B(0:19:1) = 60") { // 20 * 3
		t.Errorf("array-scalar wrong:\n%s", out)
	}
}

func TestBinaryErrors(t *testing.T) {
	base := "processors P(2)\narray A(10) distribute cyclic(2) onto P\n"
	for _, stmt := range []string{
		"A(0:4) = X(0:4) + A(0:4)",
		"A(0:4) = A(0:4) + Y(0:4)",
		"A(0:4) = A(0:4) + A(0:5)", // size mismatch
	} {
		if err := New().Run(base + stmt); err == nil {
			t.Errorf("statement %q should fail", stmt)
		}
	}
}

func TestStatsStatement(t *testing.T) {
	in := New()
	script := `
processors P(4)
array A(64) distribute cyclic(2) onto P
array B(64) distribute cyclic(8) onto P
A = 1.0
stats
B(0:63:1) = A(0:63:1)
stats
stats
`
	if err := in.Run(script); err != nil {
		t.Fatal(err)
	}
	out := in.Output()
	// Fill is communication free; the copy sends one message per
	// non-empty off-diagonal (source, destination) pair, 12, carrying
	// the 48 of its 64 values that change rank (16 stay on their
	// processor and move no message); the counter resets after each
	// report.
	if !strings.Contains(out, "comm: 0 messages, 0 values\n") {
		t.Errorf("fill should be comm-free:\n%s", out)
	}
	if !strings.Contains(out, "comm: 12 messages, 48 values\n") {
		t.Errorf("copy traffic missing:\n%s", out)
	}
	if strings.Count(out, "comm: 0 messages, 0 values\n") != 2 {
		t.Errorf("stats should reset counters:\n%s", out)
	}
	if err := New().Run("stats"); err == nil {
		t.Error("stats before processors should fail")
	}
	if err := New().Run("processors P(2)\nstats extra"); err == nil {
		t.Error("stats with arguments should fail")
	}
}
