package dist

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 8); err == nil {
		t.Error("New(0,8) should fail")
	}
	if _, err := New(4, 0); err == nil {
		t.Error("New(4,0) should fail")
	}
	if _, err := New(1<<40, 1<<40); err == nil {
		t.Error("overflowing p*k should fail")
	}
	l, err := New(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if l.P() != 4 || l.K() != 8 || l.RowLen() != 32 {
		t.Errorf("layout fields wrong: %+v", l)
	}
}

func TestBlockAndCyclic(t *testing.T) {
	// block over n=100, p=4 -> cyclic(25)
	b, err := Block(4, 100)
	if err != nil || b.K() != 25 {
		t.Errorf("Block(4,100) k=%d err=%v, want 25", b.K(), err)
	}
	// n=101 -> ceil(101/4)=26
	b, _ = Block(4, 101)
	if b.K() != 26 {
		t.Errorf("Block(4,101) k=%d, want 26", b.K())
	}
	c, err := Cyclic(7)
	if err != nil || c.K() != 1 {
		t.Errorf("Cyclic(7) k=%d err=%v, want 1", c.K(), err)
	}
	if _, err := Block(4, 0); err == nil {
		t.Error("Block with n=0 should fail")
	}
}

// TestFigure1 checks the decomposition of the paper's Figure 1: cyclic(8)
// over 4 processors; element 108 has offset 4 in block 3 of processor 1.
func TestFigure1(t *testing.T) {
	l := MustNew(4, 8)
	row, owner, offset := l.Coords(108)
	if owner != 1 {
		t.Errorf("Owner(108) = %d, want 1", owner)
	}
	if row != 3 {
		t.Errorf("Row(108) = %d, want 3", row)
	}
	if offset != 4 {
		t.Errorf("Offset(108) = %d, want 4", offset)
	}
	// Section 3: element 108 has R^2 coordinates (x,y) = (12, 3):
	// x = row-offset 12, y = row 3.
	if l.RowOffset(108) != 12 {
		t.Errorf("RowOffset(108) = %d, want 12", l.RowOffset(108))
	}
}

func TestOwnerPattern(t *testing.T) {
	l := MustNew(4, 8)
	// First row: procs 0,0,...,0 (8x), 1 (8x), 2 (8x), 3 (8x); repeats.
	for i := int64(0); i < 96; i++ {
		want := (i % 32) / 8
		if got := l.Owner(i); got != want {
			t.Fatalf("Owner(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestLocalGlobalRoundTrip(t *testing.T) {
	layouts := []Layout{
		MustNew(4, 8), MustNew(1, 1), MustNew(7, 3), MustNew(32, 64),
		MustNew(1, 100), MustNew(100, 1),
	}
	for _, l := range layouts {
		for i := int64(0); i < 4*l.RowLen()+5; i++ {
			m := l.Owner(i)
			a := l.Local(i)
			if g := l.Global(m, a); g != i {
				t.Fatalf("%v: Global(%d, Local(%d)=%d) = %d, want %d",
					l, m, i, a, g, i)
			}
			if !l.Owns(m, i) {
				t.Fatalf("%v: Owns(%d, %d) = false", l, m, i)
			}
		}
	}
}

func TestLocalIsDenseAndOrdered(t *testing.T) {
	// The local addresses of the indices owned by m, in increasing global
	// order, must be exactly 0, 1, 2, ... (dense packing).
	l := MustNew(3, 5)
	for m := int64(0); m < 3; m++ {
		next := int64(0)
		for i := int64(0); i < 10*l.RowLen(); i++ {
			if l.Owner(i) != m {
				continue
			}
			if got := l.Local(i); got != next {
				t.Fatalf("m=%d: Local(%d) = %d, want %d", m, i, got, next)
			}
			next++
		}
	}
}

func TestLocalCount(t *testing.T) {
	l := MustNew(4, 8)
	for _, n := range []int64{0, 1, 7, 8, 9, 31, 32, 33, 64, 100, 320, 321} {
		for m := int64(0); m < 4; m++ {
			want := int64(0)
			for i := int64(0); i < n; i++ {
				if l.Owner(i) == m {
					want++
				}
			}
			if got := l.LocalCount(m, n); got != want {
				t.Errorf("LocalCount(m=%d, n=%d) = %d, want %d", m, n, got, want)
			}
		}
	}
}

func TestLocalCountProperty(t *testing.T) {
	f := func(p8, k8, m8 uint8, n16 uint16) bool {
		p := int64(p8%16) + 1
		k := int64(k8%16) + 1
		m := int64(m8) % p
		n := int64(n16 % 2048)
		l := MustNew(p, k)
		want := int64(0)
		for i := int64(0); i < n; i++ {
			if l.Owner(i) == m {
				want++
			}
		}
		return l.LocalCount(m, n) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestWithin: the layout Within returns places every index in [0, n)
// where the original does, with a block of at most n cells when k > n.
func TestWithin(t *testing.T) {
	for _, k := range []int64{1, 5, 64, 1 << 40} {
		l := MustNew(7, k)
		for _, n := range []int64{0, 1, 5, 63, 100} {
			w := l.Within(n)
			if w.P() != 7 || (k > n && n > 0 && w.K() != n) || (k <= n && w != l) {
				t.Errorf("cyclic(%d).Within(%d) = %v", k, n, w)
			}
			for i := int64(0); i < n; i++ {
				if w.Owner(i) != l.Owner(i) || w.Local(i) != l.Local(i) {
					t.Fatalf("cyclic(%d).Within(%d): index %d at (%d, %d), want (%d, %d)",
						k, n, i, w.Owner(i), w.Local(i), l.Owner(i), l.Local(i))
				}
			}
		}
	}
}

func TestBlockStart(t *testing.T) {
	l := MustNew(4, 8)
	if got := l.BlockStart(1, 3); got != 104 {
		t.Errorf("BlockStart(1,3) = %d, want 104", got)
	}
	if got := l.BlockStart(0, 0); got != 0 {
		t.Errorf("BlockStart(0,0) = %d, want 0", got)
	}
	// The block starting at BlockStart(m,b) is owned by m for all k cells.
	for m := int64(0); m < 4; m++ {
		for b := int64(0); b < 3; b++ {
			start := l.BlockStart(m, b)
			for off := int64(0); off < 8; off++ {
				if l.Owner(start+off) != m {
					t.Fatalf("cell %d of block (%d,%d) not owned by %d",
						start+off, m, b, m)
				}
			}
		}
	}
}

func TestGrid(t *testing.T) {
	g := MustNewGrid(MustNew(2, 4), MustNew(3, 2))
	if g.Rank() != 2 || g.Procs() != 6 {
		t.Fatalf("rank=%d procs=%d", g.Rank(), g.Procs())
	}
	owner := g.Owner([]int64{5, 7})
	// dim0: cyclic(4) over 2: 5 mod 8 = 5 -> proc 1. dim1: cyclic(2) over 3:
	// 7 mod 6 = 1 -> proc 0.
	if owner[0] != 1 || owner[1] != 0 {
		t.Errorf("Owner([5,7]) = %v, want [1 0]", owner)
	}
	local := g.Local([]int64{5, 7})
	// dim0: row 0, offset 1 -> 1. dim1: row 1, offset 1 -> 1*2+1 = 3.
	if local[0] != 1 || local[1] != 3 {
		t.Errorf("Local([5,7]) = %v, want [1 3]", local)
	}
}

func TestGridRankRoundTrip(t *testing.T) {
	g := MustNewGrid(MustNew(2, 4), MustNew(3, 2), MustNew(4, 1))
	for r := int64(0); r < g.Procs(); r++ {
		c := g.Coords(r)
		if back := g.FlatRank(c); back != r {
			t.Fatalf("FlatRank(Coords(%d)=%v) = %d", r, c, back)
		}
	}
}

func TestGridLocalShape(t *testing.T) {
	g := MustNewGrid(MustNew(2, 4), MustNew(3, 2))
	extents := []int64{20, 13}
	total := int64(0)
	for r := int64(0); r < g.Procs(); r++ {
		sh := g.LocalShape(g.Coords(r), extents)
		total += sh[0] * sh[1]
	}
	if total != 20*13 {
		t.Errorf("sum of local volumes = %d, want %d", total, 20*13)
	}
}

func TestGridValidation(t *testing.T) {
	if _, err := NewGrid(); err == nil {
		t.Error("empty grid should fail")
	}
}

func TestOwnerNegativeIndexPanicsOrWraps(t *testing.T) {
	// Negative global indices are not part of the public contract for
	// templates, but Owner uses Euclidean mod so it stays in range.
	l := MustNew(4, 8)
	if got := l.Owner(-1); got < 0 || got >= 4 {
		t.Errorf("Owner(-1) = %d out of range", got)
	}
}

func BenchmarkLocal(b *testing.B) {
	l := MustNew(32, 64)
	r := rand.New(rand.NewSource(42))
	idx := make([]int64, 1024)
	for i := range idx {
		idx[i] = r.Int63n(1 << 40)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = l.Local(idx[i%len(idx)])
	}
}
