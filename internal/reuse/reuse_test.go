package reuse

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/codegen"
	"repro/internal/core"
)

// oracleDistances is the brute-force stack-distance reference: for each
// access, walk back to the previous occurrence and count distinct
// addresses in between. O(n²) — test-only.
func oracleDistances(addrs []int64) []int64 {
	out := make([]int64, len(addrs))
	for i, a := range addrs {
		out[i] = Cold
		for j := i - 1; j >= 0; j-- {
			if addrs[j] == a {
				seen := map[int64]bool{}
				for _, b := range addrs[j+1 : i] {
					seen[b] = true
				}
				out[i] = int64(len(seen))
				break
			}
		}
	}
	return out
}

func checkAgainstOracle(t *testing.T, label string, addrs []int64) {
	t.Helper()
	got := Distances(addrs)
	if len(addrs) == 0 {
		if got != nil {
			t.Fatalf("%s: non-nil result for empty input", label)
		}
		return
	}
	want := oracleDistances(addrs)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: distance[%d] = %d, want %d (addr %d)",
				label, i, got[i], want[i], addrs[i])
		}
	}
}

func TestDistancesSmallHandChecked(t *testing.T) {
	// The canonical example: a b c b a → distances ∞ ∞ ∞ 1 2.
	addrs := []int64{10, 20, 30, 20, 10}
	got := Distances(addrs)
	want := []int64{Cold, Cold, Cold, 1, 2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Distances = %v, want %v", got, want)
	}
	// Immediate repeat has distance 0.
	if got := Distances([]int64{5, 5, 5}); !reflect.DeepEqual(got, []int64{Cold, 0, 0}) {
		t.Fatalf("repeat distances = %v", got)
	}
}

func TestDistancesRandomTracesAgainstOracle(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := r.Intn(300)
		span := r.Int63n(40) + 1 // small address space forces reuses
		addrs := make([]int64, n)
		for i := range addrs {
			addrs[i] = r.Int63n(span)
		}
		checkAgainstOracle(t, "random", addrs)
	}
}

// TestDistancesFigure8Shapes validates the analyzer over the address
// sequences the paper's node loops actually generate: every Figure 8
// shape family, swept twice so the second sweep's distances expose the
// layout's reuse structure.
func TestDistancesFigure8Shapes(t *testing.T) {
	families := []struct {
		name       string
		p, k, l, s int64
		u          int64
	}{
		{"cyclic1", 4, 1, 0, 3, 500},
		{"unit-stride", 4, 8, 0, 1, 500},
		{"block", 4, 512, 0, 3, 500},
		{"unroll4", 4, 4, 0, 9, 2000},
		{"unroll8", 4, 8, 1, 5, 2000},
		{"rowstride", 4, 16, 0, 5, 2000},
		{"generic", 4, 16, 5, 23, 2000},
	}
	for _, fam := range families {
		for m := int64(0); m < fam.p; m++ {
			pr := core.Problem{P: fam.p, K: fam.k, L: fam.l, S: fam.s, M: m}
			addrs, err := pr.Addresses(fam.u)
			if err != nil {
				t.Fatalf("%s m=%d: %v", fam.name, m, err)
			}
			// Two sweeps of the same node loop: the second sweep's reuse
			// distance per element is the number of distinct addresses per
			// sweep minus locality effects.
			seq := append(append([]int64{}, addrs...), addrs...)
			if len(seq) > 600 {
				seq = seq[:600] // keep the O(n²) oracle fast
			}
			checkAgainstOracle(t, fam.name, seq)
		}
	}
}

// TestDistancesKernelWalks cross-checks against the compiled kernels'
// Walk sequences — the exact streams the access recorder captures.
func TestDistancesKernelWalks(t *testing.T) {
	pr := core.Problem{P: 4, K: 8, L: 4, S: 9, M: 1}
	addrs, err := pr.Addresses(320)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := core.Lattice(pr)
	if err != nil {
		t.Fatal(err)
	}
	sp := codegen.Spec{
		Problem: pr,
		Start:   addrs[0],
		Last:    addrs[len(addrs)-1],
		Count:   int64(len(addrs)),
		Gaps:    seq.Gaps,
	}
	kn := codegen.Select(sp)
	var walk []int64
	kn.Walk(func(a int64) { walk = append(walk, a) })
	doubled := append(append([]int64{}, walk...), walk...)
	checkAgainstOracle(t, "kernel-walk", doubled)
}

// TestDistancesLongTraceAgainstOracle runs one trace long enough for the
// splay tree to grow deep and rebalance many times.
func TestDistancesLongTraceAgainstOracle(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	addrs := make([]int64, 20000)
	for i := range addrs {
		// Mixture of hot and cold addresses for a heavy reuse mix.
		if r.Intn(4) == 0 {
			addrs[i] = r.Int63n(64)
		} else {
			addrs[i] = r.Int63n(1 << 20)
		}
	}
	checkAgainstOracle(t, "long", addrs)
}

func TestHistogramAndMissEstimates(t *testing.T) {
	var h Histogram
	dists := []int64{Cold, Cold, 0, 1, 2, 3, 7, 8, 100}
	for _, d := range dists {
		h.Add(d)
	}
	if h.Total != 9 || h.Cold != 2 || h.Finite() != 7 || h.Max != 100 {
		t.Fatalf("histogram totals = %+v", h)
	}
	// Buckets: 0→{0}, 1→{1}, 2→{2,3}, 3→{7}, 4→{8}, 7→{100}.
	wantCounts := map[int]int64{0: 1, 1: 1, 2: 2, 3: 1, 4: 1, 7: 1}
	for i, c := range h.Counts {
		if c != wantCounts[i] {
			t.Fatalf("bucket %d = %d, want %d", i, c, wantCounts[i])
		}
	}
	if got := h.Mean(); got != (0+1+2+3+7+8+100)/7.0 {
		t.Fatalf("Mean = %v", got)
	}

	// LRU of size C misses cold + d ≥ C.
	ests := MissEstimates(dists, []int64{1, 4, 1024})
	if ests[0].Misses != 8 { // only d=0 hits in a 1-entry cache
		t.Fatalf("miss@1 = %d, want 8", ests[0].Misses)
	}
	if ests[1].Misses != 5 { // d ∈ {0,1,2,3} hit
		t.Fatalf("miss@4 = %d, want 5", ests[1].Misses)
	}
	if ests[2].Misses != 2 { // only cold misses remain
		t.Fatalf("miss@1024 = %d, want 2", ests[2].Misses)
	}
	if ests[2].MissRate != 2.0/9 {
		t.Fatalf("miss rate = %v", ests[2].MissRate)
	}
}

// The histogram CDF at bucket i must equal the hit rate of an LRU cache
// of capacity 2^i (replayed exactly), tying the two views together.
func TestHistogramCDFMatchesMissEstimates(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	addrs := make([]int64, 5000)
	for i := range addrs {
		addrs[i] = r.Int63n(700)
	}
	dists := Distances(addrs)
	var h Histogram
	for _, d := range dists {
		h.Add(d)
	}
	for _, i := range []int{2, 5, 9} {
		c := BucketUpperBound(i) + 1 // capacity 2^i holds distances ≤ 2^i − 1
		est := MissEstimates(dists, []int64{c})[0]
		hits := int64(len(dists)) - est.Misses
		var cum int64
		for j := 0; j <= i; j++ {
			cum += h.Counts[j]
		}
		if cum != hits {
			t.Fatalf("cumulative count through bucket %d = %d, LRU(%d) hits = %d", i, cum, c, hits)
		}
		if h.CDF(i) != float64(cum)/float64(h.Total) {
			t.Fatalf("CDF(%d) inconsistent with bucket counts", i)
		}
	}
}
