package core

import (
	"repro/internal/intmath"
)

// OffsetTable is the AM table re-indexed by local block offset, as
// required by the node-code shape of Figure 8(d) (Section 6.2): deltaM
// must be indexed by the offset of the current element within its block,
// and a second table chains each offset to the next one in access order.
//
// Entries at offsets that the section never touches hold NextOffset -1
// and Delta 0.
type OffsetTable struct {
	Delta      []int64 // local memory gap, indexed by local offset in [0, K)
	NextOffset []int64 // successor local offset, -1 at untouched offsets
	Start      int64   // local offset of the processor's first element
	Length     int64   // number of touched offsets (AM table length)
}

// OffsetTables computes the Figure 8(d) tables by running the Figure 5
// gap loop with the paper's re-indexing modification: AM[offset - km] and
// NextOffset[offset - km] replace the sequentially indexed AM.
//
// For processors that own no section elements, Start is -1 and both
// tables are all-unused.
func OffsetTables(pr Problem) (OffsetTable, error) {
	if err := pr.Validate(); err != nil {
		return OffsetTable{}, err
	}
	pk := pr.P * pr.K
	d, x, _ := intmath.ExtGCD(pr.S, pk)
	start, length := pr.startScan(pk, d, x, nil)

	ot := OffsetTable{
		Delta:      make([]int64, pr.K),
		NextOffset: make([]int64, pr.K),
		Start:      -1,
		Length:     length,
	}
	for i := range ot.NextOffset {
		ot.NextOffset[i] = -1
	}
	switch length {
	case 0:
		return ot, nil
	case 1:
		off := intmath.FloorMod(start, pr.K)
		ot.Start = off
		ot.Delta[off] = pr.K * pr.S / d
		ot.NextOffset[off] = off
		return ot, nil
	}

	lat := problemLattice(pr, pk, d, x)
	basis, ok := lat.RL()
	if !ok {
		panic("core: internal: no basis despite length > 1")
	}
	br, bl := basis.R.B, basis.L.B
	gapR, gapL := basis.GapR, basis.GapL

	lo, hi := pr.K*pr.M, pr.K*(pr.M+1)
	offset := intmath.FloorMod(start, pk)
	ot.Start = offset - lo
	i := int64(0)
	for i < length {
		for i < length && offset+br < hi {
			ot.Delta[offset-lo] = gapR
			ot.NextOffset[offset-lo] = offset - lo + br
			offset += br
			i++
		}
		if i == length {
			break
		}
		cur := offset - lo
		gap := gapL
		offset -= bl
		if offset < lo {
			gap += gapR
			offset += br
		}
		ot.Delta[cur] = gap
		ot.NextOffset[cur] = offset - lo
		i++
	}
	return ot, nil
}
