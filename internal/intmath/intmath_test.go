package intmath

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFloorDiv(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{7, 2, 3},
		{-7, 2, -4},
		{7, -2, -4},
		{-7, -2, 3},
		{6, 3, 2},
		{-6, 3, -2},
		{0, 5, 0},
		{1, 5, 0},
		{-1, 5, -1},
		{-5, 5, -1},
		{-6, 5, -2},
		{4, 32, 0},
		{-4, 32, -1},
	}
	for _, c := range cases {
		if got := FloorDiv(c.a, c.b); got != c.want {
			t.Errorf("FloorDiv(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestFloorMod(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{7, 2, 1},
		{-7, 2, 1},
		{7, -2, -1},
		{-7, -2, -1},
		{-7, 32, 25},
		{0, 5, 0},
		{-5, 5, 0},
		{108, 32, 12},
	}
	for _, c := range cases {
		if got := FloorMod(c.a, c.b); got != c.want {
			t.Errorf("FloorMod(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// Property: a == FloorDiv(a,b)*b + FloorMod(a,b) and 0 <= FloorMod(a,b) < b
// for b > 0.
func TestFloorDivModProperty(t *testing.T) {
	f := func(a int64, b int64) bool {
		if b == 0 {
			return true
		}
		q, r := FloorDiv(a, b), FloorMod(a, b)
		if q*b+r != a {
			return false
		}
		if b > 0 {
			return r >= 0 && r < b
		}
		return r <= 0 && r > b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestCeilDiv(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{7, 2, 4},
		{-7, 2, -3},
		{6, 3, 2},
		{0, 4, 0},
		{1, 4, 1},
	}
	for _, c := range cases {
		if got := CeilDiv(c.a, c.b); got != c.want {
			t.Errorf("CeilDiv(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestGCD(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{9, 32, 1},
		{12, 18, 6},
		{0, 5, 5},
		{5, 0, 5},
		{0, 0, 0},
		{-12, 18, 6},
		{12, -18, 6},
		{-12, -18, 6},
		{1, 1, 1},
		{128, 96, 32},
	}
	for _, c := range cases {
		if got := GCD(c.a, c.b); got != c.want {
			t.Errorf("GCD(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLCM(t *testing.T) {
	got, err := LCM(4, 6)
	if err != nil || got != 12 {
		t.Errorf("LCM(4,6) = %d, %v; want 12, nil", got, err)
	}
	got, err = LCM(0, 7)
	if err != nil || got != 0 {
		t.Errorf("LCM(0,7) = %d, %v; want 0, nil", got, err)
	}
	if _, err = LCM(math.MaxInt64-1, math.MaxInt64); err == nil {
		t.Error("LCM of two huge coprime numbers should overflow")
	}
}

func TestExtGCDBezout(t *testing.T) {
	pairs := [][2]int64{
		{9, 32}, {32, 9}, {7, 224}, {99, 224}, {12, 18}, {1, 1},
		{270, 192}, {0, 7}, {7, 0}, {-9, 32}, {9, -32}, {-9, -32},
		{1_000_003, 998_244_353},
	}
	for _, pr := range pairs {
		a, b := pr[0], pr[1]
		d, x, y := ExtGCD(a, b)
		if d != GCD(a, b) {
			t.Errorf("ExtGCD(%d,%d) d=%d, want %d", a, b, d, GCD(a, b))
		}
		if a*x+b*y != d {
			t.Errorf("ExtGCD(%d,%d): %d*%d + %d*%d = %d, want %d",
				a, b, a, x, b, y, a*x+b*y, d)
		}
	}
}

func TestExtGCDProperty(t *testing.T) {
	f := func(a, b int32) bool {
		A, B := int64(a), int64(b)
		d, x, y := ExtGCD(A, B)
		return d == GCD(A, B) && A*x+B*y == d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestExtGCDPaperExample(t *testing.T) {
	// Paper Section 5: egcd(9, 32) must give d = 1 with s·x ≡ 1 (mod pk).
	d, x, _ := ExtGCD(9, 32)
	if d != 1 {
		t.Fatalf("d = %d, want 1", d)
	}
	if FloorMod(9*x, 32) != 1 {
		t.Errorf("9*%d mod 32 = %d, want 1", x, FloorMod(9*x, 32))
	}
}

func TestMulAddChecked(t *testing.T) {
	if v, err := MulChecked(1<<32, 1<<32); err == nil {
		t.Errorf("MulChecked(2^32, 2^32) = %d, want overflow", v)
	}
	if v, err := MulChecked(123, 456); err != nil || v != 56088 {
		t.Errorf("MulChecked(123,456) = %d, %v", v, err)
	}
	if v, err := MulChecked(-123, 456); err != nil || v != -56088 {
		t.Errorf("MulChecked(-123,456) = %d, %v", v, err)
	}
	if _, err := MulChecked(math.MinInt64, -1); err == nil {
		t.Error("MulChecked(MinInt64, -1) should overflow")
	}
	if v, err := AddChecked(math.MaxInt64, 1); err == nil {
		t.Errorf("AddChecked(MaxInt64, 1) = %d, want overflow", v)
	}
	if v, err := AddChecked(math.MinInt64, -1); err == nil {
		t.Errorf("AddChecked(MinInt64, -1) = %d, want overflow", v)
	}
	if v, err := AddChecked(40, 2); err != nil || v != 42 {
		t.Errorf("AddChecked(40,2) = %d, %v", v, err)
	}
}

// TestMulMod covers MulMod's fixed cases on both sides of the switch at
// n = 3,037,000,499 between one % and the doubling loop.
func TestMulMod(t *testing.T) {
	cases := []struct{ a, b, n, want int64 }{
		{25, 7, 32, 15},
		{-3, 5, 7, 6}, // FloorMod(-15, 7)
		{3, -5, 7, 6},
		{5, 0, 1, 0},
		{3037000498, 3037000498, 3037000498, 0}, // last modulus on the % path
		{3037000498, 3037000498, 3037000499, 1}, // first on the doubling path: (-1)²
		{-(1 << 40), 1<<40 + 3, 1<<34 + 1, -1},  // want from math/big
	}
	for _, c := range cases {
		checkMulMod(t, c.a, c.b, c.n, c.want)
	}
	defer func() {
		if recover() == nil {
			t.Error("MulMod with modulus 0 did not panic")
		}
	}()
	MulMod(1, 1, 0)
}

// TestMulModBigAgainstSmall compares MulMod with math/big on random
// full-range operands, half with moduli on the one-% path and half with
// moduli on the doubling path.
func TestMulModBigAgainstSmall(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 4000; i++ {
		n := r.Int63n(1<<30) + 1
		if i%2 == 1 {
			n = 3037000499 + r.Int63n(math.MaxInt64-3037000499)
		}
		checkMulMod(t, r.Int63()-r.Int63(), r.Int63()-r.Int63(), n, -1)
	}
}

// TestMulModBigHuge checks the doubling path where a*b overflows by far.
func TestMulModBigHuge(t *testing.T) {
	checkMulMod(t, 1<<62, 1<<62, 1<<62+1, 1) // 2⁶² ≡ -1 (mod 2⁶²+1)
	checkMulMod(t, math.MaxInt64-1, math.MaxInt64-1, math.MaxInt64, 1)
	checkMulMod(t, math.MinInt64, 2, math.MaxInt64, math.MaxInt64-2) // -2⁶³ ≡ -1
}

// checkMulMod fails t unless MulMod(a, b, n) is want; a negative want is
// taken from math/big instead.
func checkMulMod(t *testing.T, a, b, n, want int64) {
	t.Helper()
	if want < 0 {
		prod := new(big.Int).Mul(big.NewInt(a), big.NewInt(b))
		want = prod.Mod(prod, big.NewInt(n)).Int64()
	}
	if got := MulMod(a, b, n); got != want {
		t.Fatalf("MulMod(%d, %d, %d) = %d, want %d", a, b, n, got, want)
	}
}

func TestSolveCongruence(t *testing.T) {
	// The paper's start-location computation: smallest j >= 0 with
	// 9j ≡ i (mod 32) for i = 4..11 (p=4, k=8, l=4, m=1).
	wantJ := map[int64]int64{4: 4, 5: 29, 6: 22, 7: 15, 8: 8, 9: 1, 10: 26, 11: 19}
	for i, want := range wantJ {
		got, ok := SolveCongruence(9, i, 32)
		if !ok || got != want {
			t.Errorf("SolveCongruence(9, %d, 32) = %d, %v; want %d", i, got, ok, want)
		}
	}
	// Unsolvable: 4x ≡ 3 (mod 6).
	if _, ok := SolveCongruence(4, 3, 6); ok {
		t.Error("4x ≡ 3 (mod 6) should be unsolvable")
	}
	// Solvable with d > 1: 4x ≡ 2 (mod 6) → x = 2 (smallest in mod 3 class... x∈{2,5}; smallest nonneg of class is 2).
	got, ok := SolveCongruence(4, 2, 6)
	if !ok || FloorMod(4*got, 6) != 2 || got < 0 || got >= 3 {
		t.Errorf("SolveCongruence(4,2,6) = %d, %v", got, ok)
	}
	// Negative c must be handled (offsets km - l can be negative).
	got, ok = SolveCongruence(9, -3, 32)
	if !ok || FloorMod(9*got, 32) != FloorMod(-3, 32) {
		t.Errorf("SolveCongruence(9,-3,32) = %d, %v", got, ok)
	}
}

func TestSolveCongruenceIsSmallest(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		a := r.Int63n(200) + 1
		n := r.Int63n(200) + 1
		c := r.Int63n(400) - 200
		got, ok := SolveCongruence(a, c, n)
		// Brute force smallest nonnegative solution.
		want, found := int64(-1), false
		for x := int64(0); x < n; x++ {
			if FloorMod(a*x, n) == FloorMod(c, n) {
				want, found = x, true
				break
			}
		}
		if ok != found {
			t.Fatalf("a=%d c=%d n=%d: ok=%v, brute found=%v", a, c, n, ok, found)
		}
		if ok && got != want {
			t.Fatalf("a=%d c=%d n=%d: got %d, brute %d", a, c, n, got, want)
		}
	}
}

func TestAbs(t *testing.T) {
	if Abs(-5) != 5 || Abs(5) != 5 || Abs(0) != 0 {
		t.Error("Abs basic cases failed")
	}
	defer func() {
		if recover() == nil {
			t.Error("Abs(MinInt64) should panic")
		}
	}()
	Abs(math.MinInt64)
}

func BenchmarkExtGCD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ExtGCD(998244353, 1_000_000_007)
	}
}

func BenchmarkSolveCongruence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		SolveCongruence(99, 1234, 32*512)
	}
}
