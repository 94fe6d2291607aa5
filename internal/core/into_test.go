package core

import (
	"math/rand"
	"reflect"
	"testing"
)

// randomProblems yields a deterministic mix of configurations covering
// the general case, the length-1 special case and empty processors.
func randomProblems(t *testing.T, n int) []Problem {
	t.Helper()
	r := rand.New(rand.NewSource(7))
	var out []Problem
	for i := 0; i < n; i++ {
		p := r.Int63n(8) + 1
		k := r.Int63n(32) + 1
		out = append(out, Problem{
			P: p, K: k,
			L: r.Int63n(3 * k),
			S: r.Int63n(3*p*k) + 1,
			M: r.Int63n(p),
		})
	}
	return out
}

func TestSequenceIntoMatchesSequence(t *testing.T) {
	for _, pr := range randomProblems(t, 200) {
		ts, err := NewTableSet(pr.P, pr.K, pr.L, pr.S)
		if err != nil {
			t.Fatal(err)
		}
		var buf []int64
		for m := int64(0); m < pr.P; m++ {
			want, err := ts.Sequence(m)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ts.SequenceInto(m, buf)
			if err != nil {
				t.Fatal(err)
			}
			if got.Start != want.Start || got.StartLocal != want.StartLocal ||
				!reflect.DeepEqual(got.Gaps, want.Gaps) {
				t.Fatalf("%+v m=%d: SequenceInto %v != Sequence %v", pr, m, got, want)
			}
			buf = got.Gaps
		}
	}
}

func TestSequenceIntoZeroAllocWarm(t *testing.T) {
	ts, err := NewTableSet(4, 8, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]int64, 0, 8)
	allocs := testing.AllocsPerRun(100, func() {
		for m := int64(0); m < 4; m++ {
			s, err := ts.SequenceInto(m, buf)
			if err != nil {
				t.Fatal(err)
			}
			buf = s.Gaps
		}
	})
	if allocs > 0 {
		t.Fatalf("SequenceInto with warm buffer allocates %.1f/op, want 0", allocs)
	}
}

func TestAllParallelMatchesSequential(t *testing.T) {
	// p = 64 ranks share the one gap buffer All's pass lays out.
	ts, err := NewTableSet(64, 16, 3, 37)
	if err != nil {
		t.Fatal(err)
	}
	all, err := ts.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 64 {
		t.Fatalf("All returned %d sequences", len(all))
	}
	for m := int64(0); m < 64; m++ {
		want, err := Lattice(Problem{P: 64, K: 16, L: 3, S: 37, M: m})
		if err != nil {
			t.Fatal(err)
		}
		if all[m].Start != want.Start || !reflect.DeepEqual(all[m].Gaps, want.Gaps) {
			t.Fatalf("m=%d: All %v != Lattice %v", m, all[m], want)
		}
	}
}
