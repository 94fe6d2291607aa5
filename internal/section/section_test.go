package section

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewRejectsZeroStride(t *testing.T) {
	if _, err := New(0, 10, 0); err == nil {
		t.Error("zero stride should be rejected")
	}
	if _, err := New(0, 10, 2); err != nil {
		t.Errorf("valid section rejected: %v", err)
	}
}

func TestCount(t *testing.T) {
	cases := []struct {
		s    Section
		want int64
	}{
		{MustNew(0, 10, 1), 11},
		{MustNew(0, 10, 3), 4},  // 0 3 6 9
		{MustNew(0, 9, 3), 4},   // 0 3 6 9
		{MustNew(0, 8, 3), 3},   // 0 3 6
		{MustNew(5, 4, 1), 0},   // empty ascending
		{MustNew(10, 0, -3), 4}, // 10 7 4 1
		{MustNew(0, 10, -1), 0}, // empty descending
		{MustNew(7, 7, 5), 1},
		{MustNew(7, 7, -5), 1},
		{MustNew(0, 319, 9), 36}, // paper Figure 1 section l=0 s=9 over 320 cells
	}
	for _, c := range cases {
		if got := c.s.Count(); got != c.want {
			t.Errorf("%v.Count() = %d, want %d", c.s, got, c.want)
		}
		if c.s.Empty() != (c.want == 0) {
			t.Errorf("%v.Empty() inconsistent with Count", c.s)
		}
	}
}

func TestElementLastSlice(t *testing.T) {
	s := MustNew(4, 40, 9)
	want := []int64{4, 13, 22, 31, 40}
	if got := s.Slice(); !reflect.DeepEqual(got, want) {
		t.Errorf("Slice() = %v, want %v", got, want)
	}
	if s.Last() != 40 {
		t.Errorf("Last() = %d", s.Last())
	}
	d := MustNew(40, 4, -9)
	wantD := []int64{40, 31, 22, 13, 4}
	if got := d.Slice(); !reflect.DeepEqual(got, wantD) {
		t.Errorf("descending Slice() = %v, want %v", got, wantD)
	}
}

func TestContainsIndexOf(t *testing.T) {
	s := MustNew(4, 40, 9)
	for j, e := range map[int64]int64{0: 4, 1: 13, 4: 40} {
		if !s.Contains(e) {
			t.Errorf("Contains(%d) = false", e)
		}
		if got := s.IndexOf(e); got != j {
			t.Errorf("IndexOf(%d) = %d, want %d", e, got, j)
		}
	}
	for _, e := range []int64{5, 3, 41, 49, -5, 0} {
		if s.Contains(e) {
			t.Errorf("Contains(%d) = true", e)
		}
		if s.IndexOf(e) != -1 {
			t.Errorf("IndexOf(%d) != -1", e)
		}
	}
	d := MustNew(40, 4, -9)
	if !d.Contains(13) || d.IndexOf(13) != 3 {
		t.Errorf("descending Contains/IndexOf failed: %d", d.IndexOf(13))
	}
}

func TestAscending(t *testing.T) {
	d := MustNew(40, 4, -9)
	a, rev := d.Ascending()
	if !rev {
		t.Error("descending section should report reversed")
	}
	if !reflect.DeepEqual(a.Slice(), []int64{4, 13, 22, 31, 40}) {
		t.Errorf("Ascending elements = %v", a.Slice())
	}
	s := MustNew(4, 40, 9)
	a2, rev2 := s.Ascending()
	if rev2 || a2 != s {
		t.Error("ascending section should be unchanged")
	}
	e := MustNew(0, 10, -1)
	ae, _ := e.Ascending()
	if !ae.Empty() {
		t.Error("empty descending should stay empty")
	}
}

func TestAll(t *testing.T) {
	s := MustNew(4, 40, 9)
	var got []int64
	for j, e := range s.All() {
		if s.Element(j) != e {
			t.Fatalf("iterator mismatch at %d", j)
		}
		got = append(got, e)
	}
	if !reflect.DeepEqual(got, s.Slice()) {
		t.Errorf("All() = %v", got)
	}
}

func TestClampTo(t *testing.T) {
	s := MustNew(4, 400, 9)
	c := s.ClampTo(20, 50)
	if !reflect.DeepEqual(c.Slice(), []int64{22, 31, 40, 49}) {
		t.Errorf("ClampTo = %v", c.Slice())
	}
	// Clamp to range with no elements.
	c2 := s.ClampTo(5, 12)
	if !c2.Empty() {
		t.Errorf("ClampTo(5,12) = %v, want empty", c2.Slice())
	}
	// Descending clamp preserves direction.
	d := MustNew(400, 4, -9)
	cd := d.ClampTo(20, 50)
	if !reflect.DeepEqual(cd.Slice(), []int64{49, 40, 31, 22}) {
		t.Errorf("descending ClampTo = %v", cd.Slice())
	}
	// Clamp wider than the section is a no-op on the element set.
	c3 := s.ClampTo(-100, 1000)
	if !reflect.DeepEqual(c3.Slice(), s.Slice()) {
		t.Errorf("wide ClampTo changed elements: %v", c3.Slice())
	}
}

func TestShiftScale(t *testing.T) {
	s := MustNew(1, 10, 3) // 1 4 7 10
	sh := s.Shift(5)
	if !reflect.DeepEqual(sh.Slice(), []int64{6, 9, 12, 15}) {
		t.Errorf("Shift = %v", sh.Slice())
	}
	sc := s.Scale(2)
	if !reflect.DeepEqual(sc.Slice(), []int64{2, 8, 14, 20}) {
		t.Errorf("Scale = %v", sc.Slice())
	}
	neg := s.Scale(-1)
	if !reflect.DeepEqual(neg.Slice(), []int64{-1, -4, -7, -10}) {
		t.Errorf("Scale(-1) = %v", neg.Slice())
	}
	if neg.Count() != s.Count() {
		t.Error("Scale must preserve count")
	}
}

func TestCountProperty(t *testing.T) {
	f := func(lo int16, span uint8, stride int8) bool {
		if stride == 0 {
			return true
		}
		s := Section{Lo: int64(lo), Hi: int64(lo) + int64(span) - 10, Stride: int64(stride)}
		var brute int64
		if s.Stride > 0 {
			for i := s.Lo; i <= s.Hi; i += s.Stride {
				brute++
			}
		} else {
			for i := s.Lo; i >= s.Hi; i += s.Stride {
				brute++
			}
		}
		return s.Count() == brute
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestRect(t *testing.T) {
	r, err := NewRect(MustNew(0, 2, 1), MustNew(0, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	if r.Rank() != 2 || r.Count() != 9 {
		t.Fatalf("rank=%d count=%d", r.Rank(), r.Count())
	}
	if !r.Contains([]int64{1, 2}) || r.Contains([]int64{1, 3}) {
		t.Error("Contains wrong")
	}
	if r.Contains([]int64{1}) {
		t.Error("rank mismatch should be false")
	}
	var rowMajor [][2]int64
	for idx := range r.All() {
		rowMajor = append(rowMajor, [2]int64{idx[0], idx[1]})
	}
	wantRM := [][2]int64{{0, 0}, {0, 2}, {0, 4}, {1, 0}, {1, 2}, {1, 4}, {2, 0}, {2, 2}, {2, 4}}
	if !reflect.DeepEqual(rowMajor, wantRM) {
		t.Errorf("row-major order = %v", rowMajor)
	}
	var colMajor [][2]int64
	for idx := range r.AllColMajor() {
		colMajor = append(colMajor, [2]int64{idx[0], idx[1]})
	}
	wantCM := [][2]int64{{0, 0}, {1, 0}, {2, 0}, {0, 2}, {1, 2}, {2, 2}, {0, 4}, {1, 4}, {2, 4}}
	if !reflect.DeepEqual(colMajor, wantCM) {
		t.Errorf("col-major order = %v", colMajor)
	}
}

func TestRectEmpty(t *testing.T) {
	r, _ := NewRect(MustNew(0, 2, 1), MustNew(5, 4, 1))
	if !r.Empty() || r.Count() != 0 {
		t.Error("rect with empty dim should be empty")
	}
	for range r.All() {
		t.Fatal("iteration over empty rect")
	}
	if _, err := NewRect(Section{0, 1, 0}); err == nil {
		t.Error("NewRect must reject zero stride")
	}
}

func TestRectString(t *testing.T) {
	r, _ := NewRect(MustNew(0, 9, 1), MustNew(2, 20, 3))
	if got := r.String(); got != "(0:9:1, 2:20:3)" {
		t.Errorf("String() = %q", got)
	}
}
