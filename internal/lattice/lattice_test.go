package lattice

import (
	"math"
	"math/big"
	"math/rand"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// The paper's running example: p = 4, k = 8 (P = 32), s = 9.
func paperLattice(t *testing.T) *Lattice {
	t.Helper()
	l, err := New(4, 8, 9)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 8, 9); err == nil {
		t.Error("p=0 should fail")
	}
	if _, err := New(4, 0, 9); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := New(4, 8, 0); err == nil {
		t.Error("s=0 should fail")
	}
	if _, err := New(4, 8, -3); err == nil {
		t.Error("negative stride should fail")
	}
	if _, err := New(1<<31, 1<<31, 2); err == nil {
		t.Error("overflowing p*k should fail")
	}
}

func TestPointFor(t *testing.T) {
	l := paperLattice(t)
	// Section 3's example: the basis segment endpoints. Point for i = 11:
	// 11*9 = 99 = 3*32 + 3 -> (3, 3).
	pt := l.PointFor(11)
	if pt.B != 3 || pt.A != 3 {
		t.Errorf("PointFor(11) = %v, want (3,3)", pt)
	}
	// i = 7: 63 = 1*32 + 31 -> (31, 1)... paper instead uses (-1, 2):
	// 2*32 - 1 = 63. Both satisfy the equation; PointFor canonicalizes to
	// 0 <= b < P.
	pt = l.PointFor(7)
	if pt.A*32+pt.B != 63 || pt.B < 0 || pt.B >= 32 {
		t.Errorf("PointFor(7) = %v not canonical", pt)
	}
	// Negative index.
	pt = l.PointFor(-3)
	if pt.A*32+pt.B != -27 || pt.B < 0 || pt.B >= 32 {
		t.Errorf("PointFor(-3) = %v not canonical", pt)
	}
	if pt.B != 5 || pt.A != -1 {
		t.Errorf("PointFor(-3) = %v, want (5,-1)", pt)
	}
}

func TestContains(t *testing.T) {
	l := paperLattice(t)
	for i := int64(-20); i <= 20; i++ {
		pt := l.PointFor(i)
		if !l.Contains(pt.B, pt.A) {
			t.Errorf("Contains(PointFor(%d)) = false", i)
		}
	}
	// (1, 0): 0*32+1 = 1, not divisible by 9.
	if l.Contains(1, 0) {
		t.Error("Contains(1,0) should be false")
	}
}

func TestClosedUnderSubtraction(t *testing.T) {
	// Theorem 1: differences of lattice points are lattice points.
	l := paperLattice(t)
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		p1 := l.PointFor(r.Int63n(100) - 50)
		p2 := l.PointFor(r.Int63n(100) - 50)
		d := p1.Sub(p2)
		if !l.Contains(d.B, d.A) {
			t.Fatalf("difference %v of %v and %v not in lattice", d, p1, p2)
		}
		if d.A*l.P+d.B != d.I*l.S {
			t.Fatalf("index bookkeeping broken: %v", d)
		}
	}
}

func TestSmallestIndexWithOffset(t *testing.T) {
	l := paperLattice(t)
	// From the paper's Section 4 walk-through (p=4, k=8, s=9): offsets 1..7
	// have smallest indices 225, 162, 99, 36, 261, 198, 135 -> i = loc/9.
	want := map[int64]int64{1: 25, 2: 18, 3: 11, 4: 4, 5: 29, 6: 22, 7: 15}
	for b, wi := range want {
		pt, ok := l.SmallestIndexWithOffset(b)
		if !ok {
			t.Fatalf("offset %d should be solvable", b)
		}
		if pt.I != wi {
			t.Errorf("SmallestIndexWithOffset(%d).I = %d, want %d", b, pt.I, wi)
		}
		if pt.B != b {
			t.Errorf("SmallestIndexWithOffset(%d).B = %d", b, pt.B)
		}
	}
	// d > 1 case: s = 6, P = 32, d = 2. Offset 3 unsolvable.
	l2, _ := New(4, 8, 6)
	if _, ok := l2.SmallestIndexWithOffset(3); ok {
		t.Error("offset 3 should be unsolvable for s=6, P=32")
	}
	pt, ok := l2.SmallestIndexWithOffset(4)
	if !ok || pt.B != 4 {
		t.Errorf("offset 4 for s=6: %v, %v", pt, ok)
	}
	// The index must be the smallest: verify by brute force.
	for i := int64(0); i < pt.I; i++ {
		if l2.PointFor(i).B == 4 {
			t.Errorf("index %d < %d also has offset 4", i, pt.I)
		}
	}
}

func TestIsBasisPaperExample(t *testing.T) {
	// Section 3: (3,3) with i=11 and (-1,2) with i=7 form a basis since
	// 3*7 - 2*11 = -1.
	v1 := Point{B: 3, A: 3, I: 11}
	v2 := Point{B: -1, A: 2, I: 7}
	if !IsBasis(v1, v2) {
		t.Error("paper's example basis rejected")
	}
	// (3,3)@11 and (6,6)@22 are linearly dependent.
	if IsBasis(v1, Point{B: 6, A: 6, I: 22}) {
		t.Error("dependent vectors accepted as basis")
	}
}

func TestAnyBasis(t *testing.T) {
	l := paperLattice(t)
	v1, v2, single := l.AnyBasis()
	if single {
		t.Fatal("P=32, S=9 is not the single-vector case")
	}
	if !IsBasis(v1, v2) {
		t.Errorf("AnyBasis returned non-basis %v, %v", v1, v2)
	}
	// Both must be lattice points.
	for _, v := range []Point{v1, v2} {
		if v.A*l.P+v.B != v.I*l.S {
			t.Errorf("AnyBasis vector %v not on lattice", v)
		}
	}
	// Single-vector case: P | S.
	l2, _ := New(4, 8, 64)
	_, _, single = l2.AnyBasis()
	if !single {
		t.Error("P=32, S=64 should be the single-vector case")
	}
}

func TestRLPaperExample(t *testing.T) {
	l := paperLattice(t)
	b, ok := l.RL()
	if !ok {
		t.Fatal("RL should succeed for the paper example")
	}
	if b.R.B != 4 || b.R.A != 1 {
		t.Errorf("R = %v, want (4,1)", b.R)
	}
	if b.L.B != 5 || b.L.A != -1 {
		t.Errorf("L = %v, want (5,-1)", b.L)
	}
	if b.R.I != 4 {
		t.Errorf("R.I = %d, want 4 (index 36)", b.R.I)
	}
	if b.L.I != -3 {
		t.Errorf("L.I = %d, want -3 (index -27)", b.L.I)
	}
	// Gap values used by the Figure 5 example: a_r·k + b_r = 12,
	// -(a_l·k + b_l) = 3.
	if b.GapR != 12 {
		t.Errorf("GapR = %d, want 12", b.GapR)
	}
	if b.GapL != 3 {
		t.Errorf("GapL = %d, want 3", b.GapL)
	}
	if err := l.Verify(b); err != nil {
		t.Errorf("Verify failed: %v", err)
	}
	if !IsBasis(b.R, b.L) {
		t.Error("R, L should form a basis")
	}
}

func TestRLDegenerateCases(t *testing.T) {
	// k = 1: no offsets in (0, 1).
	l, _ := New(4, 1, 3)
	if _, ok := l.RL(); ok {
		t.Error("k=1 should have no R/L basis")
	}
	// d >= k: s = 16, P = 32, d = 16 >= k = 8.
	l2, _ := New(4, 8, 16)
	if _, ok := l2.RL(); ok {
		t.Error("d >= k should have no R/L basis")
	}
	// P | s.
	l3, _ := New(4, 8, 32)
	if _, ok := l3.RL(); ok {
		t.Error("P | s should have no R/L basis")
	}
}

// TestRLInvariantsSweep verifies the Section 4 construction across a broad
// parameter sweep: R/L are lattice points with offsets in (0,k), R has the
// smallest positive index with such an offset, L the largest negative one,
// and they form a basis.
func TestRLInvariantsSweep(t *testing.T) {
	for _, p := range []int64{1, 2, 3, 4, 7, 32} {
		for _, k := range []int64{2, 3, 4, 8, 16} {
			for _, s := range []int64{1, 2, 3, 5, 7, 9, 15, 31, 33, 63, 97} {
				l, err := New(p, k, s)
				if err != nil {
					t.Fatal(err)
				}
				b, ok := l.RL()
				if !ok {
					if l.D < k {
						t.Errorf("p=%d k=%d s=%d: RL failed but d=%d < k", p, k, s, l.D)
					}
					continue
				}
				if err := l.Verify(b); err != nil {
					t.Errorf("p=%d k=%d s=%d: %v", p, k, s, err)
					continue
				}
				// Brute-force the extremal indices: R.I must be the smallest
				// i > 0 with offset in (0,k); L.I the largest i < 0 likewise.
				limit := l.P / l.D * 2
				bruteR, bruteL := int64(0), int64(0)
				for i := int64(1); i <= limit; i++ {
					if pt := l.PointFor(i); pt.B > 0 && pt.B < k {
						bruteR = i
						break
					}
				}
				for i := int64(-1); i >= -limit; i-- {
					if pt := l.PointFor(i); pt.B > 0 && pt.B < k {
						bruteL = i
						break
					}
				}
				if b.R.I != bruteR {
					t.Errorf("p=%d k=%d s=%d: R.I = %d, brute %d", p, k, s, b.R.I, bruteR)
				}
				if b.L.I != bruteL {
					t.Errorf("p=%d k=%d s=%d: L.I = %d, brute %d", p, k, s, b.L.I, bruteL)
				}
			}
		}
	}
}

// TestEmptyTriangle verifies the defining property used in Theorem 2's
// proof: no lattice point lies strictly inside the triangle (0,0), R, L
// with offset coordinate in (0, k).
func TestEmptyTriangle(t *testing.T) {
	for _, s := range []int64{3, 7, 9, 11, 25} {
		l, err := New(4, 8, s)
		if err != nil {
			t.Fatal(err)
		}
		b, ok := l.RL()
		if !ok {
			continue
		}
		for i := b.L.I + 1; i < b.R.I; i++ {
			if i == 0 {
				continue
			}
			pt := l.PointFor(i)
			if pt.B > 0 && pt.B < l.K {
				t.Errorf("s=%d: index %d -> %v lies between L and R with offset in (0,k)",
					s, i, pt)
			}
		}
	}
}

func TestPointArithmetic(t *testing.T) {
	a := Point{B: 3, A: 1, I: 2}
	bb := Point{B: -1, A: 2, I: 5}
	if got := a.Add(bb); got != (Point{B: 2, A: 3, I: 7}) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(bb); got != (Point{B: 4, A: -1, I: -3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Neg(); got != (Point{B: -3, A: -1, I: -2}) {
		t.Errorf("Neg = %v", got)
	}
}

func TestVerifyRejectsBadBasis(t *testing.T) {
	l := paperLattice(t)
	good, _ := l.RL()
	bad := good
	bad.R.B = 0 // offset must be in (0, k)
	if err := l.Verify(bad); err == nil {
		t.Error("Verify accepted R with offset 0")
	}
	bad = good
	bad.GapR++
	if err := l.Verify(bad); err == nil {
		t.Error("Verify accepted inconsistent GapR")
	}
	bad = good
	bad.L.I = 1
	if err := l.Verify(bad); err == nil {
		t.Error("Verify accepted L with positive index")
	}
}

// TestSolvable compares every (i, j) pair the walk yields with a
// per-step math/big evaluation of j = ((i mod P)/D · X) mod P/D over the
// same window, and checks j·S ≡ i (mod P) and 0 ≤ j < P/D, on windows
// where no Enumerate oracle can look: P/D of 2³² and more (the doubling
// mul-mod's range), negative lower ends, D > 1, windows that cross a
// multiple of P (where j wraps to 0), and hpfd's limits p·k = 2²²,
// l, s ≤ 2⁴⁰.
func TestSolvable(t *testing.T) {
	const hpfdPK, hpfdN = 1 << 22, 1 << 40
	cases := []struct {
		name    string
		p, k, s int64
		lo, hi  int64
	}{
		{"paper rank 1", 4, 8, 9, 4, 12},
		{"d=2 negative lo", 4, 8, 6, -21, 11},
		{"d=12 across P", 3, 8, 12, 24 - 30, 24 + 30},
		{"s > P", 3, 5, 38, -7, 40},
		{"hpfd limits odd s", 1 << 10, 1 << 12, hpfdN - 1, 5<<12 - (hpfdN - 1), 6<<12 - (hpfdN - 1)},
		{"hpfd limits d=2^22", 1 << 10, 1 << 12, hpfdN, 3<<12 - (hpfdN - 1), 4<<12 - (hpfdN - 1)},
		{"hpfd limits d=2 across P", 1 << 10, 1 << 12, hpfdN - 2, hpfdPK - 2000, hpfdPK + 2000},
		{"nd=2^33 d=2", 1 << 31, 8, 6, -(1 << 40), -(1 << 40) + 64},
		{"nd=2^34 across P", 1 << 31, 8, 1<<28 + 3, 1<<34 - 40, 1<<34 + 40},
		{"nd=2^34 far negative", 1 << 31, 8, 1<<28 + 3, math.MinInt64 / 4, math.MinInt64/4 + 97},
		{"nd=2^61-1", 1<<61 - 1, 1, 3, 1<<61 - 1 - 50, 1<<61 - 1 + 50},
		{"nd=2^62 d=1", 1 << 31, 1 << 31, 1, -3, 5},
		{"empty window", 4, 8, 12, 1, 4},
	}
	for _, c := range cases {
		lat, err := New(c.p, c.k, c.s)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var got [][2]int64
		for i, j := range lat.Solvable(c.lo, c.hi) {
			got = append(got, [2]int64{i, j})
		}
		P, D, S, X := big.NewInt(lat.P), big.NewInt(lat.D), big.NewInt(lat.S), big.NewInt(lat.X)
		nd := new(big.Int).Div(P, D)
		var want [][2]int64
		for i := c.lo; i < c.hi; i++ {
			bi := big.NewInt(i)
			if new(big.Int).Mod(bi, D).Sign() != 0 {
				continue
			}
			j := new(big.Int).Mod(bi, P)
			j.Div(j, D).Mul(j, X).Mod(j, nd)
			check := new(big.Int).Mul(j, S)
			if check.Sub(check, bi).Mod(check, P).Sign() != 0 || j.Cmp(nd) >= 0 {
				t.Fatalf("%s: oracle j = %v for i = %d is not the smallest solution", c.name, j, i)
			}
			want = append(want, [2]int64{i, j.Int64()})
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d pairs, want %d", c.name, len(got), len(want))
		}
		for n := range want {
			if got[n] != want[n] {
				t.Fatalf("%s: pair %d = %v, want %v", c.name, n, got[n], want[n])
			}
		}
		for range lat.Solvable(c.lo, c.hi) {
			break // an early stop must not reach yield again
		}
	}
}

// TestSolvableInlined pins what keeps the start scan, the basis scan and
// TableSet's spans as fast as hand-written loops: the compiler inlines
// Solvable, its closure and the ranged loop body at all three call
// sites, so no offset pays a closure call. Only the compiler's report
// shows that per-offset cost; the allocation tests would see only the
// closure Solvable returns, once per call, if Solvable itself stopped
// being inlined.
func TestSolvableInlined(t *testing.T) {
	gotool := filepath.Join(runtime.GOROOT(), "bin", "go")
	out, err := exec.Command(gotool, "build", "-gcflags=-m", ".", "../core").CombinedOutput()
	if err != nil {
		t.Skipf("cannot run %s build -gcflags=-m: %v\n%s", gotool, err, out)
	}
	var inlined int
	for _, line := range strings.Split(string(out), "\n") {
		if strings.Contains(line, ": inlining call to ") && strings.HasSuffix(line, "(*Lattice).Solvable") {
			inlined++
		}
	}
	if inlined != 3 {
		t.Errorf("Solvable is inlined at %d call sites, want 3 (RL, startScan, spans)", inlined)
	}
	for _, caller := range []string{"(*Lattice).RL", "Problem.startScan", "(*TableSet).spans"} {
		for _, call := range []string{caller + ".(*Lattice).Solvable.func1", caller + "-range1"} {
			if !strings.Contains(string(out), "inlining call to "+call+"\n") {
				t.Errorf("%s is not inlined into %s", call, caller)
			}
		}
	}
}

func BenchmarkRL(b *testing.B) {
	l, _ := New(32, 512, 99)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := l.RL(); !ok {
			b.Fatal("RL failed")
		}
	}
}
