// Virtual-processor address enumeration: the schemes of Gupta, Kaushik,
// Huang & Sadayappan that the paper compares against in Section 7. A
// cyclic(k) distribution over p processors is viewed as a pure cyclic or
// pure block distribution over a larger set of virtual processors, each
// physical processor emulating several virtual ones.
//
//   - Virtual-cyclic: the template is dealt cyclically to p·k virtual
//     processors; physical processor m emulates virtual processors
//     m·k … m·k+k−1. Section elements with the SAME block offset are
//     visited in increasing index order, but elements at different
//     offsets are visited offset-by-offset — NOT in global index order.
//   - Virtual-block: the template is cut into blocks assigned to virtual
//     processors round-robin; physical processor m visits its blocks
//     (rows) in order and the section elements within each block in
//     order, which IS increasing index order — but when the stride
//     exceeds the block size most blocks are empty and the scheme
//     degenerates to run-time resolution (Section 7).
//
// These generators make the paper's comparison concrete: both produce
// the same element sets as package core, but only the paper's algorithm
// yields increasing-index order with O(k) table construction in the
// general case.

package core_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/intmath"
)

// virtualAccess is one generated element: its global index and local memory
// address under the owner's packed cyclic(k) layout.
type virtualAccess struct {
	Index, Local int64
}

// virtualCyclic enumerates the elements of the bounded section l:u:s owned by
// processor m in VIRTUAL-CYCLIC order: offset class by offset class (in
// increasing offset), increasing index within each class. The result
// covers exactly the same elements as core's algorithms but generally not
// in increasing global-index order.
func virtualCyclic(pr core.Problem, u int64) ([]virtualAccess, error) {
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	if u < pr.L {
		return nil, nil
	}
	n := (u-pr.L)/pr.S + 1
	pk := pr.P * pr.K
	d, x, _ := intmath.ExtGCD(pr.S, pk)
	nd := pk / d
	var out []virtualAccess
	// One virtual processor per offset in m's block, visited in offset
	// order: this is exactly "only array elements that have the same
	// offset are accessed in increasing order" (Section 7).
	lo := pr.K*pr.M - pr.L
	for i := intmath.CeilDiv(lo, d) * d; i < lo+pr.K; i += d {
		j0 := intmath.MulMod(intmath.FloorMod(i, pk)/d, x, nd)
		for j := j0; j < n; j += nd {
			g := pr.L + j*pr.S
			out = append(out, virtualAccess{
				Index: g,
				Local: intmath.FloorDiv(g, pk)*pr.K + intmath.FloorMod(g, pr.K),
			})
		}
	}
	return out, nil
}

// virtualBlock enumerates the elements of the bounded section l:u:s owned by
// processor m in VIRTUAL-BLOCK order: block (row) by block, increasing
// index within each block. For cyclic(k) layouts this coincides with
// increasing global-index order, because each processor's blocks occupy
// disjoint, increasing index ranges.
//
// The scheme's cost is its weakness: it visits every owned block, even
// the ones the section skips entirely, so for s > k most iterations do no
// work (the degeneration to "run-time address resolution" noted in
// Section 7).
type blockStats struct {
	BlocksVisited int64 // rows examined, including empty ones
	Elements      int64 // elements produced
}

// virtualBlock returns the accesses and the visit statistics.
func virtualBlock(pr core.Problem, u int64) ([]virtualAccess, blockStats, error) {
	var stats blockStats
	if err := pr.Validate(); err != nil {
		return nil, stats, err
	}
	if u < pr.L {
		return nil, stats, nil
	}
	pk := pr.P * pr.K
	var out []virtualAccess
	// Walk every block of processor m that intersects [l, u].
	firstRow := intmath.FloorDiv(pr.L, pk)
	if firstRow < 0 {
		firstRow = intmath.FloorDiv(pr.L-pr.M*pr.K, pk) // conservative
	}
	lastRow := intmath.FloorDiv(u, pk)
	for row := firstRow; row <= lastRow; row++ {
		stats.BlocksVisited++
		blockLo := row*pk + pr.M*pr.K
		blockHi := blockLo + pr.K - 1
		// First section element >= max(blockLo, l).
		from := max(blockLo, pr.L)
		j := intmath.CeilDiv(from-pr.L, pr.S)
		for g := pr.L + j*pr.S; g <= blockHi && g <= u; g += pr.S {
			if g < blockLo {
				continue
			}
			out = append(out, virtualAccess{
				Index: g,
				Local: row*pr.K + intmath.FloorMod(g, pr.K),
			})
			stats.Elements++
		}
	}
	return out, stats, nil
}

// bruteSet returns the (index, local) pairs of all owned section elements
// in increasing index order.
func bruteSet(pr core.Problem, u int64) []virtualAccess {
	pk := pr.P * pr.K
	var out []virtualAccess
	for g := pr.L; g <= u; g += pr.S {
		if (g%pk)/pr.K == pr.M {
			out = append(out, virtualAccess{Index: g, Local: (g/pk)*pr.K + g%pr.K})
		}
	}
	return out
}

func sortByIndex(a []virtualAccess) []virtualAccess {
	c := slices.Clone(a)
	slices.SortFunc(c, func(x, y virtualAccess) int {
		switch {
		case x.Index < y.Index:
			return -1
		case x.Index > y.Index:
			return 1
		}
		return 0
	})
	return c
}

func TestVirtualSchemesCoverSameElements(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for trial := 0; trial < 400; trial++ {
		p := r.Int63n(6) + 1
		k := r.Int63n(10) + 1
		s := r.Int63n(3*p*k) + 1
		l := r.Int63n(2 * p * k)
		u := l + r.Int63n(5*s*k+1)
		m := r.Int63n(p)
		pr := core.Problem{P: p, K: k, L: l, S: s, M: m}
		want := bruteSet(pr, u)

		cyc, err := virtualCyclic(pr, u)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(sortByIndex(cyc), want) {
			t.Fatalf("%+v u=%d: cyclic covers %v, want %v", pr, u, sortByIndex(cyc), want)
		}
		blk, _, err := virtualBlock(pr, u)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(blk, want) {
			t.Fatalf("%+v u=%d: block = %v, want %v", pr, u, blk, want)
		}
	}
}

func TestVirtualBlockOrderIsIncreasing(t *testing.T) {
	pr := core.Problem{P: 4, K: 8, L: 4, S: 9, M: 1}
	blk, _, err := virtualBlock(pr, 500)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(blk); i++ {
		if blk[i].Index <= blk[i-1].Index {
			t.Fatalf("block order not increasing at %d: %v", i, blk)
		}
	}
}

// TestVirtualCyclicOrderDiffersFromIndexOrder pins down the paper's Section 7
// criticism: virtual-cyclic does NOT visit elements in increasing index
// order (for patterns touching more than one offset).
func TestVirtualCyclicOrderDiffersFromIndexOrder(t *testing.T) {
	pr := core.Problem{P: 4, K: 8, L: 4, S: 9, M: 1}
	cyc, err := virtualCyclic(pr, 500)
	if err != nil {
		t.Fatal(err)
	}
	inOrder := true
	for i := 1; i < len(cyc); i++ {
		if cyc[i].Index < cyc[i-1].Index {
			inOrder = false
			break
		}
	}
	if inOrder {
		t.Error("virtual-cyclic unexpectedly produced increasing index order")
	}
}

// TestVirtualCyclicOrderWithinOffsetClasses: within one offset class the order is
// increasing (the property Gupta et al. do guarantee).
func TestVirtualCyclicOrderWithinOffsetClasses(t *testing.T) {
	pr := core.Problem{P: 4, K: 8, L: 4, S: 9, M: 1}
	cyc, err := virtualCyclic(pr, 1000)
	if err != nil {
		t.Fatal(err)
	}
	lastByOffset := map[int64]int64{}
	for _, a := range cyc {
		off := a.Index % pr.K
		if prev, ok := lastByOffset[off]; ok && a.Index <= prev {
			t.Fatalf("offset class %d not increasing: %d after %d", off, a.Index, prev)
		}
		lastByOffset[off] = a.Index
	}
}

// TestVirtualBlockDegeneratesForLargeStride reproduces the Section 7 observation:
// when s >> k, virtual-block visits many empty blocks per element.
func TestVirtualBlockDegeneratesForLargeStride(t *testing.T) {
	pr := core.Problem{P: 4, K: 4, L: 0, S: 64, M: 0} // s = 4·pk
	_, stats, err := virtualBlock(pr, 64*50)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Elements == 0 {
		t.Fatal("expected some elements")
	}
	if stats.BlocksVisited < 3*stats.Elements {
		t.Errorf("expected heavy degeneration: %d blocks for %d elements",
			stats.BlocksVisited, stats.Elements)
	}
}

func TestVirtualEmptyAndInvalid(t *testing.T) {
	pr := core.Problem{P: 4, K: 8, L: 10, S: 3, M: 0}
	if acc, err := virtualCyclic(pr, 5); err != nil || acc != nil {
		t.Errorf("u < l should be empty: %v %v", acc, err)
	}
	if acc, _, err := virtualBlock(pr, 5); err != nil || acc != nil {
		t.Errorf("u < l should be empty: %v %v", acc, err)
	}
	bad := core.Problem{P: 0, K: 8, L: 0, S: 3, M: 0}
	if _, err := virtualCyclic(bad, 10); err == nil {
		t.Error("invalid problem should fail")
	}
	if _, _, err := virtualBlock(bad, 10); err == nil {
		t.Error("invalid problem should fail")
	}
}
