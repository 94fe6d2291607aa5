package core

import (
	"slices"

	"repro/internal/intmath"
)

// Sorting computes the access sequence with the method of Chatterjee,
// Gilbert, Long, Schreiber & Teng (PPoPP'93): solve one linear Diophantine
// equation per offset in the processor's block to get the first section
// element at each offset, sort those indices, and scan the sorted cycle
// for the memory gaps. O(k log k + min(log s, log p)) time.
//
// The start-location scan (Figure 5, lines 3-11) is shared verbatim with
// Lattice, mirroring the paper's experimental setup (Section 6.1). Sorting
// uses the standard library's comparison sort; SortingRadix mirrors the
// linear-time radix sort the original implementation switched to at
// k ≥ 64.
func Sorting(pr Problem) (Sequence, error) {
	return sortingImpl(pr, func(locs []int64) { slices.Sort(locs) })
}

// SortingRadix is Sorting with an LSD radix sort in place of the
// comparison sort, matching the original implementation's behaviour for
// large block sizes (Section 6.1: "the linear-time radix sort when
// k ≥ 64").
func SortingRadix(pr Problem) (Sequence, error) {
	return sortingImpl(pr, radixSort)
}

func sortingImpl(pr Problem, sortFn func([]int64)) (Sequence, error) {
	if err := pr.Validate(); err != nil {
		return Sequence{}, err
	}
	pk := pr.P * pr.K
	d, x, _ := intmath.ExtGCD(pr.S, pk)

	locs := make([]int64, 0, pr.K/d+1)
	start, length := pr.startScan(pk, d, x, &locs)

	switch length {
	case 0:
		return Sequence{Start: -1}, nil
	case 1:
		return Sequence{
			Start:      start,
			StartLocal: pr.localAddr(start, pk),
			Gaps:       []int64{pr.K * pr.S / d},
		}, nil
	}

	sortFn(locs)

	// Scan the sorted cycle for memory gaps. The cycle repeats every
	// pk/d section steps, i.e. every (pk/d)·s in global index; the final
	// gap wraps from the largest index in the cycle to the first index of
	// the next cycle.
	gaps := make([]int64, length)
	prev := pr.localAddr(locs[0], pk)
	for t := int64(1); t < length; t++ {
		cur := pr.localAddr(locs[t], pk)
		gaps[t-1] = cur - prev
		prev = cur
	}
	next := pr.localAddr(locs[0]+(pk/d)*pr.S, pk)
	gaps[length-1] = next - prev

	return Sequence{
		Start:      locs[0],
		StartLocal: pr.localAddr(locs[0], pk),
		Gaps:       gaps,
	}, nil
}

// radixSort sorts nonnegative int64 keys with an LSD byte-wise radix
// sort, skipping passes whose byte is constant across all keys.
func radixSort(a []int64) {
	if len(a) < 2 {
		return
	}
	maxV := a[0]
	for _, v := range a[1:] {
		if v > maxV {
			maxV = v
		}
	}
	buf := make([]int64, len(a))
	src, dst := a, buf
	var counts [256]int
	for shift := uint(0); shift < 64 && (maxV>>shift) != 0; shift += 8 {
		for i := range counts {
			counts[i] = 0
		}
		for _, v := range src {
			counts[(v>>shift)&0xff]++
		}
		pos := 0
		for b := 0; b < 256; b++ {
			c := counts[b]
			counts[b] = pos
			pos += c
		}
		for _, v := range src {
			b := (v >> shift) & 0xff
			dst[counts[b]] = v
			counts[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
}
