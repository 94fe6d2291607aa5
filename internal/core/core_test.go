package core

import (
	"errors"
	"math/big"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// paperProblem is the worked example of Section 5 / Figure 6:
// p=4, k=8, l=4, s=9, processor 1.
var paperProblem = Problem{P: 4, K: 8, L: 4, S: 9, M: 1}

func TestLatticePaperExample(t *testing.T) {
	seq, err := Lattice(paperProblem)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Start != 13 {
		t.Errorf("Start = %d, want 13", seq.Start)
	}
	// Element 13: row 0, offset 5 within processor 1's block.
	if seq.StartLocal != 5 {
		t.Errorf("StartLocal = %d, want 5", seq.StartLocal)
	}
	want := []int64{3, 12, 15, 12, 3, 12, 3, 12}
	if !reflect.DeepEqual(seq.Gaps, want) {
		t.Errorf("AM = %v, want %v", seq.Gaps, want)
	}
}

func TestLatticeFigure1Section(t *testing.T) {
	// Figure 1's section: l=0, s=9 over cyclic(8)x4. Processor 0's first
	// element is index 0 at local address 0.
	seq, err := Lattice(Problem{P: 4, K: 8, L: 0, S: 9, M: 0})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Start != 0 || seq.StartLocal != 0 {
		t.Errorf("start = %d local %d, want 0, 0", seq.Start, seq.StartLocal)
	}
	if len(seq.Gaps) != 8 {
		t.Errorf("AM length = %d, want 8", len(seq.Gaps))
	}
}

func TestAllProcessorsPaperSection(t *testing.T) {
	// Every processor's sequence must match the brute-force oracle.
	for m := int64(0); m < 4; m++ {
		pr := Problem{P: 4, K: 8, L: 4, S: 9, M: m}
		lat, err := Lattice(pr)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := Enumerate(pr)
		if err != nil {
			t.Fatal(err)
		}
		if !lat.Equal(ref) {
			t.Errorf("m=%d: lattice %v != oracle %v", m, lat, ref)
		}
	}
}

func TestValidate(t *testing.T) {
	bad := []Problem{
		{P: 0, K: 8, L: 0, S: 1, M: 0},
		{P: 4, K: 0, L: 0, S: 1, M: 0},
		{P: 4, K: 8, L: 0, S: 0, M: 0},
		{P: 4, K: 8, L: 0, S: -3, M: 0},
		{P: 4, K: 8, L: 0, S: 1, M: 4},
		{P: 4, K: 8, L: 0, S: 1, M: -1},
		{P: 1 << 32, K: 1 << 32, L: 0, S: 1, M: 0},
		{P: 32, K: 1 << 40, L: 0, S: 1 << 40, M: 0},
	}
	for _, pr := range bad {
		if err := pr.Validate(); err == nil {
			t.Errorf("Validate(%+v) should fail", pr)
		}
		if _, err := Lattice(pr); err == nil {
			t.Errorf("Lattice(%+v) should fail", pr)
		}
		if _, err := Sorting(pr); err == nil {
			t.Errorf("Sorting(%+v) should fail", pr)
		}
	}
	if err := paperProblem.Validate(); err != nil {
		t.Errorf("paper problem should validate: %v", err)
	}
}

func TestEmptyProcessor(t *testing.T) {
	// p=4, k=2, s=8: pk=8 divides s, so the section stays at one offset
	// (l mod 8 = 3 -> processor 1). All other processors own nothing.
	for m := int64(0); m < 4; m++ {
		pr := Problem{P: 4, K: 2, L: 3, S: 8, M: m}
		seq, err := Lattice(pr)
		if err != nil {
			t.Fatal(err)
		}
		if m == 1 {
			if seq.Empty() || seq.Start != 3 {
				t.Errorf("m=1 should own start 3, got %v", seq)
			}
			// Single-offset case: one gap of k*s/d = 2*8/8 = 2.
			if !reflect.DeepEqual(seq.Gaps, []int64{2}) {
				t.Errorf("m=1 AM = %v, want [2]", seq.Gaps)
			}
		} else if !seq.Empty() {
			t.Errorf("m=%d should be empty, got %v", m, seq)
		}
	}
}

func TestSingleLengthCase(t *testing.T) {
	// d >= k but d < pk: s=16, p=4, k=8 -> pk=32, d=16. Two offset classes
	// (0 and 16): processors 0 and 2 own one offset each.
	for m := int64(0); m < 4; m++ {
		pr := Problem{P: 4, K: 8, L: 0, S: 16, M: m}
		seq, err := Lattice(pr)
		if err != nil {
			t.Fatal(err)
		}
		ref, _ := Enumerate(pr)
		if !seq.Equal(ref) {
			t.Errorf("m=%d: %v != oracle %v", m, seq, ref)
		}
		if m == 0 || m == 2 {
			if len(seq.Gaps) != 1 {
				t.Errorf("m=%d: AM length %d, want 1", m, len(seq.Gaps))
			}
		} else if !seq.Empty() {
			t.Errorf("m=%d should be empty", m)
		}
	}
}

// sweepProblems yields a deterministic broad mix of parameters, including
// the paper's benchmark settings and adversarial shapes.
func sweepProblems() []Problem {
	var prs []Problem
	for _, p := range []int64{1, 2, 3, 4, 5, 7, 8, 32} {
		for _, k := range []int64{1, 2, 3, 4, 7, 8, 16, 64} {
			pk := p * k
			strides := []int64{1, 2, 3, 5, 7, 9, 15, k + 1, pk - 1, pk + 1, 2*pk + 3, 99}
			for _, s := range strides {
				if s < 1 {
					continue
				}
				for _, l := range []int64{0, 1, 4, pk + 5} {
					for _, m := range []int64{0, p / 2, p - 1} {
						prs = append(prs, Problem{P: p, K: k, L: l, S: s, M: m})
					}
				}
			}
		}
	}
	return prs
}

func TestLatticeMatchesOracleSweep(t *testing.T) {
	for _, pr := range sweepProblems() {
		lat, err := Lattice(pr)
		if err != nil {
			t.Fatalf("%+v: %v", pr, err)
		}
		ref, err := Enumerate(pr)
		if err != nil {
			t.Fatalf("%+v: %v", pr, err)
		}
		if !lat.Equal(ref) {
			t.Errorf("%+v:\n lattice %v\n oracle  %v", pr, lat, ref)
		}
	}
}

func TestSortingMatchesLatticeSweep(t *testing.T) {
	for _, pr := range sweepProblems() {
		lat, _ := Lattice(pr)
		srt, err := Sorting(pr)
		if err != nil {
			t.Fatalf("%+v: %v", pr, err)
		}
		if !lat.Equal(srt) {
			t.Errorf("%+v:\n lattice %v\n sorting %v", pr, lat, srt)
		}
		rad, err := SortingRadix(pr)
		if err != nil {
			t.Fatalf("%+v: %v", pr, err)
		}
		if !lat.Equal(rad) {
			t.Errorf("%+v:\n lattice %v\n radix   %v", pr, lat, rad)
		}
	}
}

func TestHiranandaniMatchesLattice(t *testing.T) {
	applicable, skipped := 0, 0
	for _, pr := range sweepProblems() {
		hir, err := Hiranandani(pr)
		if err != nil {
			skipped++
			continue
		}
		applicable++
		lat, _ := Lattice(pr)
		if !lat.Equal(hir) {
			t.Errorf("%+v:\n lattice     %v\n hiranandani %v", pr, lat, hir)
		}
	}
	if applicable == 0 {
		t.Error("sweep contained no s mod pk < k cases")
	}
	if skipped == 0 {
		t.Error("sweep contained no s mod pk >= k cases")
	}
}

func TestHiranandaniRejectsLargeStride(t *testing.T) {
	// s mod pk = 9 >= k = 8.
	_, err := Hiranandani(Problem{P: 4, K: 8, L: 0, S: 9, M: 0})
	if err == nil {
		t.Fatal("expected ErrStrideTooLarge")
	}
}

func TestHiranandaniAcceptsSmallStride(t *testing.T) {
	// s = 37: 37 mod 32 = 5 < 8.
	seq, err := Hiranandani(Problem{P: 4, K: 8, L: 0, S: 37, M: 2})
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := Enumerate(Problem{P: 4, K: 8, L: 0, S: 37, M: 2})
	if !seq.Equal(ref) {
		t.Errorf("hiranandani %v != oracle %v", seq, ref)
	}
}

func TestRandomizedAgreement(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 3000; trial++ {
		p := r.Int63n(16) + 1
		k := r.Int63n(24) + 1
		s := r.Int63n(4*p*k) + 1
		l := r.Int63n(3 * p * k)
		m := r.Int63n(p)
		pr := Problem{P: p, K: k, L: l, S: s, M: m}
		ref, err := Enumerate(pr)
		if err != nil {
			t.Fatal(err)
		}
		lat, _ := Lattice(pr)
		if !lat.Equal(ref) {
			t.Fatalf("%+v:\n lattice %v\n oracle  %v", pr, lat, ref)
		}
		srt, _ := Sorting(pr)
		if !srt.Equal(ref) {
			t.Fatalf("%+v:\n sorting %v\n oracle  %v", pr, srt, ref)
		}
		if hir, err := Hiranandani(pr); err == nil {
			if !hir.Equal(ref) {
				t.Fatalf("%+v:\n hiranandani %v\n oracle %v", pr, hir, ref)
			}
		}
	}
}

// TestGapInvariants checks the structural facts Section 5 proves: every
// gap is one of the three Theorem 3 values, and one full cycle advances
// local memory by exactly k·s/d.
func TestGapInvariants(t *testing.T) {
	for _, pr := range sweepProblems() {
		seq, err := Lattice(pr)
		if err != nil || seq.Empty() {
			continue
		}
		pk := pr.P * pr.K
		d := gcd64(pr.S, pk)
		var sum int64
		for _, g := range seq.Gaps {
			sum += g
		}
		if want := pr.K * pr.S / d; sum != want {
			t.Errorf("%+v: cycle sum %d, want %d", pr, sum, want)
		}
		if len(seq.Gaps) > 1 {
			basis, ok, err := Vectors(pr.P, pr.K, pr.S)
			if err != nil || !ok {
				t.Errorf("%+v: Vectors failed: ok=%v err=%v", pr, ok, err)
				continue
			}
			for _, g := range seq.Gaps {
				if g != basis.GapR && g != basis.GapL && g != basis.GapR+basis.GapL {
					t.Errorf("%+v: gap %d not in {R=%d, L=%d, R+L=%d}",
						pr, g, basis.GapR, basis.GapL, basis.GapR+basis.GapL)
				}
			}
		}
		if int64(len(seq.Gaps)) > pr.K {
			t.Errorf("%+v: AM length %d exceeds k=%d", pr, len(seq.Gaps), pr.K)
		}
	}
}

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a < 0 {
		return -a
	}
	return a
}

func TestSequenceAddress(t *testing.T) {
	seq, _ := Lattice(paperProblem)
	// Walk 30 elements and compare against direct enumeration.
	pr := paperProblem
	pk := pr.P * pr.K
	var want []int64
	for j := int64(0); len(want) < 30; j++ {
		g := pr.L + j*pr.S
		if (g%pk)/pr.K == pr.M {
			want = append(want, (g/pk)*pr.K+g%pr.K)
		}
	}
	for n, w := range want {
		if got := seq.Address(int64(n)); got != w {
			t.Errorf("Address(%d) = %d, want %d", n, got, w)
		}
	}
}

func TestLatticeTrace(t *testing.T) {
	seq, trace, err := LatticeTrace(paperProblem)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{3, 12, 15, 12, 3, 12, 3, 12}
	if !reflect.DeepEqual(seq.Gaps, want) {
		t.Fatalf("trace variant produced different AM: %v", seq.Gaps)
	}
	// Section 5.1: at most 2k+1 points examined.
	if len(trace) > int(2*paperProblem.K+1) {
		t.Errorf("trace has %d visits, bound is %d", len(trace), 2*paperProblem.K+1)
	}
	// The walk-through visits 40, 76, 103 (off-proc), 139, ... and ends at
	// 301 (first point of the next cycle).
	var visited []int64
	for _, v := range trace {
		visited = append(visited, v.Index)
	}
	wantPrefix := []int64{40, 76, 103, 139}
	for i, w := range wantPrefix {
		if visited[i] != w {
			t.Fatalf("visit %d = %d, want %d (all: %v)", i, visited[i], w, visited)
		}
	}
	if visited[len(visited)-1] != 301 {
		t.Errorf("last visit = %d, want 301", visited[len(visited)-1])
	}
	if trace[2].OnProc {
		t.Error("index 103 should be flagged off-processor")
	}
	if trace[2].Equation != 2 || trace[3].Equation != 3 {
		t.Errorf("equations = %d,%d, want 2,3", trace[2].Equation, trace[3].Equation)
	}
}

func TestWalkerMatchesLattice(t *testing.T) {
	for _, pr := range sweepProblems() {
		seq, _ := Lattice(pr)
		w, ok, err := NewWalker(pr)
		if err != nil {
			t.Fatal(err)
		}
		if ok == seq.Empty() {
			t.Errorf("%+v: walker ok=%v but sequence empty=%v", pr, ok, seq.Empty())
			continue
		}
		if !ok {
			continue
		}
		if w.Start() != seq.Start || w.StartLocal() != seq.StartLocal {
			t.Errorf("%+v: walker start %d/%d, lattice %d/%d",
				pr, w.Start(), w.StartLocal(), seq.Start, seq.StartLocal)
		}
		if w.Period() != int64(len(seq.Gaps)) {
			t.Errorf("%+v: period %d, want %d", pr, w.Period(), len(seq.Gaps))
		}
		// Two full periods from the walker must equal the table repeated.
		for rep := 0; rep < 2; rep++ {
			for i, g := range seq.Gaps {
				if got := w.Next(); got != g {
					t.Fatalf("%+v: rep %d gap %d = %d, want %d", pr, rep, i, got, g)
				}
			}
		}
	}
}

func TestWalkerAddresses(t *testing.T) {
	w, ok, err := NewWalker(paperProblem)
	if err != nil || !ok {
		t.Fatal(err)
	}
	got := w.Addresses(5, nil)
	want := []int64{5, 8, 20, 35, 47}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Addresses = %v, want %v", got, want)
	}
}

func TestOffsetTables(t *testing.T) {
	ot, err := OffsetTables(paperProblem)
	if err != nil {
		t.Fatal(err)
	}
	if ot.Start != 5 { // start 13, local offset 13 mod 8 = 5
		t.Errorf("Start = %d, want 5", ot.Start)
	}
	if ot.Length != 8 {
		t.Errorf("Length = %d, want 8", ot.Length)
	}
	// Chasing the tables from Start must reproduce the AM sequence.
	seq, _ := Lattice(paperProblem)
	off := ot.Start
	for i, g := range seq.Gaps {
		if ot.Delta[off] != g {
			t.Fatalf("Delta[%d] = %d, want %d (step %d)", off, ot.Delta[off], g, i)
		}
		off = ot.NextOffset[off]
		if off < 0 {
			t.Fatalf("chain broken at step %d", i)
		}
	}
	if off != ot.Start {
		t.Errorf("chain did not close: ended at %d", off)
	}
}

func TestOffsetTablesSweep(t *testing.T) {
	for _, pr := range sweepProblems() {
		ot, err := OffsetTables(pr)
		if err != nil {
			t.Fatal(err)
		}
		seq, _ := Lattice(pr)
		if seq.Empty() {
			if ot.Start != -1 {
				t.Errorf("%+v: empty but Start=%d", pr, ot.Start)
			}
			continue
		}
		off := ot.Start
		for i, g := range seq.Gaps {
			if off < 0 || off >= pr.K {
				t.Fatalf("%+v: offset %d out of range at step %d", pr, off, i)
			}
			if ot.Delta[off] != g {
				t.Fatalf("%+v: Delta[%d]=%d, want %d", pr, off, ot.Delta[off], g)
			}
			off = ot.NextOffset[off]
		}
		if off != ot.Start {
			t.Errorf("%+v: offset chain not cyclic", pr)
		}
	}
}

func TestCountLastAddresses(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 800; trial++ {
		p := r.Int63n(8) + 1
		k := r.Int63n(12) + 1
		s := r.Int63n(3*p*k) + 1
		l := r.Int63n(2 * p * k)
		u := l + r.Int63n(6*p*k*s)
		m := r.Int63n(p)
		pr := Problem{P: p, K: k, L: l, S: s, M: m}
		pk := p * k

		var wantCount, wantLast int64
		wantLast = -1
		var wantAddrs []int64
		for g := l; g <= u; g += s {
			if (g%pk)/k == m {
				wantCount++
				wantLast = g
				wantAddrs = append(wantAddrs, (g/pk)*k+g%k)
			}
		}
		gotCount, err := pr.Count(u)
		if err != nil {
			t.Fatal(err)
		}
		if gotCount != wantCount {
			t.Fatalf("%+v u=%d: Count = %d, want %d", pr, u, gotCount, wantCount)
		}
		gotLast, err := pr.Last(u)
		if err != nil {
			t.Fatal(err)
		}
		if gotLast != wantLast {
			t.Fatalf("%+v u=%d: Last = %d, want %d", pr, u, gotLast, wantLast)
		}
		gotAddrs, err := pr.Addresses(u)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotAddrs, wantAddrs) {
			t.Fatalf("%+v u=%d: Addresses = %v, want %v", pr, u, gotAddrs, wantAddrs)
		}
	}
}

func TestCountBeforeLowerBound(t *testing.T) {
	pr := paperProblem
	if n, _ := pr.Count(pr.L - 1); n != 0 {
		t.Errorf("Count(u < l) = %d", n)
	}
	if last, _ := pr.Last(pr.L - 1); last != -1 {
		t.Errorf("Last(u < l) = %d", last)
	}
	if addrs, _ := pr.Addresses(pr.L - 1); addrs != nil {
		t.Errorf("Addresses(u < l) = %v", addrs)
	}
}

func TestVectorsDegenerate(t *testing.T) {
	if _, ok, err := Vectors(4, 1, 3); err != nil || ok {
		t.Errorf("k=1 should have no basis (ok=%v err=%v)", ok, err)
	}
	if _, _, err := Vectors(0, 1, 3); err == nil {
		t.Error("invalid p should error")
	}
	basis, ok, err := Vectors(4, 8, 9)
	if err != nil || !ok {
		t.Fatalf("Vectors(4,8,9): ok=%v err=%v", ok, err)
	}
	if basis.GapR != 12 || basis.GapL != 3 {
		t.Errorf("gaps = %d,%d, want 12,3", basis.GapR, basis.GapL)
	}
}

func TestRadixSort(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(300)
		a := make([]int64, n)
		for i := range a {
			a[i] = r.Int63n(1 << uint(r.Intn(40)+1))
		}
		want := append([]int64(nil), a...)
		for i := 1; i < len(want); i++ {
			for j := i; j > 0 && want[j] < want[j-1]; j-- {
				want[j], want[j-1] = want[j-1], want[j]
			}
		}
		radixSort(a)
		if !reflect.DeepEqual(a, want) {
			t.Fatalf("radixSort wrong for trial %d", trial)
		}
	}
	// Degenerate inputs.
	radixSort(nil)
	radixSort([]int64{5})
	all0 := []int64{0, 0, 0}
	radixSort(all0)
	if !reflect.DeepEqual(all0, []int64{0, 0, 0}) {
		t.Error("radixSort of zeros broke")
	}
}

func TestLargeParameters(t *testing.T) {
	// Large but safe parameters exercise the overflow-aware paths.
	pr := Problem{P: 1 << 16, K: 1 << 16, L: 12345, S: (1 << 25) + 7, M: 99}
	seq, err := Lattice(pr)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Empty() {
		t.Skip("processor owns nothing for these parameters")
	}
	// Spot-check: Start is on processor M and is a section element.
	pk := pr.P * pr.K
	if (seq.Start%pk)/pr.K != pr.M {
		t.Errorf("start %d not on processor %d", seq.Start, pr.M)
	}
	if (seq.Start-pr.L)%pr.S != 0 {
		t.Error("start not a section element")
	}
}

// windowOracle builds processor M's sequence from its definition: the
// minimum, over the offsets of M's k-window, of each offset's smallest
// section index (solved with math/big, so no int64 mul-mod is shared
// with the code under test), then the local gaps between the sorted
// indices and on to the next cycle.
func windowOracle(pr Problem) Sequence {
	pk := pr.P * pr.K
	d := gcd64(pr.S, pk)
	nd := big.NewInt(pk / d)
	inv := new(big.Int).ModInverse(big.NewInt(pr.S/d), nd)
	var locs []int64
	for o := pr.K * pr.M; o < pr.K*(pr.M+1); o++ {
		r := new(big.Int).Mod(big.NewInt(o-pr.L), big.NewInt(pk))
		if new(big.Int).Mod(r, big.NewInt(d)).Sign() != 0 {
			continue
		}
		j := r.Div(r, big.NewInt(d)).Mul(r, inv).Mod(r, nd)
		locs = append(locs, pr.L+j.Int64()*pr.S)
	}
	if len(locs) == 0 {
		return Sequence{Start: -1}
	}
	slices.Sort(locs)
	local := func(g int64) int64 { return g/pk*pr.K + g%pr.K }
	locs = append(locs, locs[0]+nd.Int64()*pr.S)
	gaps := make([]int64, len(locs)-1)
	for t := range gaps {
		gaps[t] = local(locs[t+1]) - local(locs[t])
	}
	return Sequence{Start: locs[0], StartLocal: local(locs[0]), Gaps: gaps}
}

// TestLargeModulusAgreement checks every table builder, and the walker,
// where pk/d reaches 2³³–2³⁴, past the 3,037,000,499 at which a mul-mod
// needs its doubling path and far past Enumerate's O(pk/d) reach: p = 2³¹
// with k = 8, against windowOracle.
func TestLargeModulusAgreement(t *testing.T) {
	const p, k = 1 << 31, 8
	for _, c := range []struct{ l, s, m int64 }{
		{0, 1<<28 + 3, 0},
		{12345, 1<<28 + 3, p - 1},
		{3, 5, 1 << 30},
		{7, 6, 99},       // d = 2, and s < k: Hiranandani applies
		{1 << 40, 12, 5}, // d = 4
		{1 << 40, 12, 6},
	} {
		pr := Problem{P: p, K: k, L: c.l, S: c.s, M: c.m}
		want := windowOracle(pr)
		if want.Length() < 2 {
			t.Fatalf("%+v: oracle table has length %d; pick a case with a basis", pr, want.Length())
		}
		ts, err := NewTableSet(p, k, c.l, c.s)
		if err != nil {
			t.Fatal(err)
		}
		builders := map[string]func(Problem) (Sequence, error){
			"Lattice": Lattice, "Sorting": Sorting, "SortingRadix": SortingRadix,
			"Hiranandani": Hiranandani, "TableSet": func(pr Problem) (Sequence, error) { return ts.Sequence(pr.M) },
		}
		for name, build := range builders {
			got, err := build(pr)
			if errors.Is(err, ErrStrideTooLarge) {
				continue
			}
			if err != nil || !got.Equal(want) {
				t.Errorf("%+v: %s = %v (err %v), want %v", pr, name, got, err, want)
			}
		}
		w, ok, err := NewWalker(pr)
		if err != nil || !ok || w.Start() != want.Start || w.StartLocal() != want.StartLocal {
			t.Fatalf("%+v: walker start %v (ok %v, err %v), want %v", pr, w, ok, err, want)
		}
		for n, g := range want.Gaps {
			if got := w.Next(); got != g {
				t.Errorf("%+v: walker gap %d = %d, want %d", pr, n, got, g)
			}
		}
	}
}
