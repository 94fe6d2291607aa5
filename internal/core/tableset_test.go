package core

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestTableSetMatchesLattice(t *testing.T) {
	for _, pr := range sweepProblems() {
		ts, err := NewTableSet(pr.P, pr.K, pr.L, pr.S)
		if err != nil {
			t.Fatalf("%+v: %v", pr, err)
		}
		for m := int64(0); m < pr.P; m++ {
			got, err := ts.Sequence(m)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Lattice(Problem{P: pr.P, K: pr.K, L: pr.L, S: pr.S, M: m})
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("p=%d k=%d l=%d s=%d m=%d:\n tableset %v\n lattice  %v",
					pr.P, pr.K, pr.L, pr.S, m, got, want)
			}
		}
	}
}

func TestTableSetQuick(t *testing.T) {
	f := func(q quickProblem) bool {
		ts, err := NewTableSet(q.Pr.P, q.Pr.K, q.Pr.L, q.Pr.S)
		if err != nil {
			return false
		}
		got, err := ts.Sequence(q.Pr.M)
		if err != nil {
			return false
		}
		want, err := Lattice(q.Pr)
		if err != nil {
			return false
		}
		return got.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1200}); err != nil {
		t.Error(err)
	}
}

// TestSpansMatchOracle checks TableSet.Spans against the per-rank
// oracles over the sweep configurations and every bound spanBounds
// picks.
func TestSpansMatchOracle(t *testing.T) {
	for i, pr := range sweepProblems() {
		if pr.M != 0 {
			continue // Spans covers every rank; one problem per config
		}
		ts, err := NewTableSet(pr.P, pr.K, pr.L, pr.S)
		if err != nil {
			t.Fatalf("%+v: %v", pr, err)
		}
		for _, u := range spanBounds(pr.P, pr.K, pr.L, pr.S, int64(i)) {
			checkSpans(t, ts, pr.P, pr.K, pr.L, pr.S, u)
		}
	}
}

func TestTableSetAll(t *testing.T) {
	ts, err := NewTableSet(4, 8, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	all, err := ts.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 4 {
		t.Fatalf("got %d sequences", len(all))
	}
	want := []int64{3, 12, 15, 12, 3, 12, 3, 12}
	if !reflect.DeepEqual(all[1].Gaps, want) {
		t.Errorf("proc 1 gaps = %v", all[1].Gaps)
	}
}

// TestTableSetCyclicShift verifies the Section 6.1 observation: when
// gcd(s, pk) = 1 every processor's AM table is a cyclic shift of every
// other's.
func TestTableSetCyclicShift(t *testing.T) {
	ts, err := NewTableSet(4, 8, 4, 9) // gcd(9, 32) = 1
	if err != nil {
		t.Fatal(err)
	}
	if !ts.SingleCycle() {
		t.Fatal("gcd=1 configuration should report SingleCycle")
	}
	all, err := ts.All()
	if err != nil {
		t.Fatal(err)
	}
	base := all[0].Gaps
	for m := 1; m < 4; m++ {
		if !isRotation(all[m].Gaps, base) {
			t.Errorf("proc %d table %v is not a rotation of %v", m, all[m].Gaps, base)
		}
	}
	// d > 1 configuration is not a single cycle.
	ts2, err := NewTableSet(4, 8, 0, 6) // gcd(6, 32) = 2
	if err != nil {
		t.Fatal(err)
	}
	if ts2.SingleCycle() {
		t.Error("gcd=2 should not report SingleCycle")
	}
}

func isRotation(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	n := len(a)
	for shift := 0; shift < n; shift++ {
		match := true
		for i := 0; i < n; i++ {
			if a[i] != b[(i+shift)%n] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return n == 0
}

func TestTableSetErrors(t *testing.T) {
	if _, err := NewTableSet(0, 8, 0, 9); err == nil {
		t.Error("invalid config should fail")
	}
	ts, err := NewTableSet(4, 8, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ts.Sequence(-1); err == nil {
		t.Error("negative processor should fail")
	}
	if _, err := ts.Sequence(4); err == nil {
		t.Error("out-of-range processor should fail")
	}
}

func TestTableSetDegenerate(t *testing.T) {
	// pk | s: single offset class.
	ts, err := NewTableSet(4, 2, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if ts.SingleCycle() {
		t.Error("degenerate config should not be a single cycle")
	}
	for m := int64(0); m < 4; m++ {
		got, err := ts.Sequence(m)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := Lattice(Problem{P: 4, K: 2, L: 3, S: 8, M: m})
		if !got.Equal(want) {
			t.Errorf("m=%d: %v != %v", m, got, want)
		}
	}
}

func BenchmarkTableSetVsLattice(b *testing.B) {
	const p, k, l, s = 32, 256, 0, 99
	b.Run("shared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ts, err := NewTableSet(p, k, l, s)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := ts.All(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("individual", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for m := int64(0); m < p; m++ {
				if _, err := Lattice(Problem{P: p, K: k, L: l, S: s, M: m}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
