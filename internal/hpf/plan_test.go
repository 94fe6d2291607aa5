package hpf

import (
	"math/rand/v2"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/intmath"
	"repro/internal/section"
)

// TestBuildPlansGapWindows pins the fact the kernel menu rests on: every
// rank that owns part of a section gets a non-nil gap window from
// BuildPlans, so no kernel ever has to run off the transition tables
// alone. Random keys cover d = gcd(s, pk) > 1 with d ∤ k, ranks that own
// exactly one element, and blocks larger than the array (k > n).
func TestBuildPlansGapWindows(t *testing.T) {
	var dNotK, single, bigK int
	check := func(p, k, l, s, n int64) {
		t.Helper()
		asc := section.MustNew(l, n-1, s)
		ts, err := core.NewTableSet(p, k, l, s)
		if err != nil {
			t.Fatalf("p=%d k=%d l=%d s=%d: %v", p, k, l, s, err)
		}
		var total int64
		for m, pl := range BuildPlans(ts, dist.MustNew(p, k), asc) {
			if pl.Count() == 0 {
				continue
			}
			total += pl.Count()
			if pl.Gaps() == nil {
				t.Fatalf("p=%d k=%d %d:%d:%d: rank %d owns %d elements but has no gap window",
					p, k, l, n-1, s, m, pl.Count())
			}
			if pl.Count() == 1 {
				single++
			}
		}
		if total != asc.Count() {
			t.Fatalf("p=%d k=%d %d:%d:%d: plans own %d elements, want %d", p, k, l, n-1, s, total, asc.Count())
		}
		if d := intmath.GCD(s, p*k); d > 1 && k%d != 0 {
			dNotK++
		}
		if k > n {
			bigK++
		}
	}
	check(4, 8, 4, 9, 320)  // the paper's example
	check(4, 6, 1, 4, 500)  // d = 4 does not divide k = 6
	check(4, 8, 0, 9, 30)   // one element per rank
	check(3, 100, 2, 3, 50) // k > n: the section fits in rank 0's block

	rng := rand.New(rand.NewPCG(33, 1))
	for i := 0; i < 2000; i++ {
		p := 1 + rng.Int64N(8)
		k := 1 + rng.Int64N(64)
		s := 1 + rng.Int64N(3*p*k)
		n := 1 + rng.Int64N(4*p*k)
		if i%4 == 0 {
			n = 1 + rng.Int64N(k) // k ≥ n, mostly k > n
		}
		check(p, k, rng.Int64N(n), s, n)
	}
	if dNotK == 0 || single == 0 || bigK == 0 {
		t.Fatalf("keys missed a class: d∤k %d, one-element ranks %d, k > n %d", dNotK, single, bigK)
	}
}
