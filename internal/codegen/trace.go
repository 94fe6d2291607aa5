package codegen

// Access-traced kernel execution. Every kernel kind can enumerate the
// exact local-address sequence its node loop touches (Walk), and each
// of the three ops (fill, map, sum) has a *Traced variant that performs
// the same work as its untraced twin while streaming (addr, rw, step)
// records into the active telemetry.AccessRecorder. The traced variants
// are dispatched by internal/hpf only when a recorder is installed, so
// the untraced hot paths carry no recording branch; the traced paths
// favour a single shared walker over 15 duplicated loops and accept the
// closure-call overhead — recording is an observability mode, not a
// production path.

import "repro/internal/telemetry"

// Walk calls visit with every local address the kernel's traversal
// touches, in access order, and returns the number of addresses
// visited. It is the address-sequence oracle for the traced ops, the
// reuse-distance profiler and the differential tests; it performs no
// memory operation itself.
func (kn *Kernel) Walk(visit func(addr int64)) int64 {
	switch kn.kind {
	case KindConstGap:
		base := kn.start
		for r := kn.count; r > 0; r-- {
			visit(base)
			base += kn.gap
		}
		return kn.count
	case KindRowStride:
		var n int64
		off := kn.start % kn.blockK
		rowBase := kn.start - off
		lat := off % kn.stride
		for rowBase <= kn.last {
			end := rowBase + kn.blockK - 1
			if end > kn.last {
				end = kn.last
			}
			for a := rowBase + off; a <= end; a += kn.stride {
				visit(a)
				n++
			}
			rowBase += kn.blockK
			lat += kn.rowStep
			if lat >= kn.stride {
				lat -= kn.stride
			}
			off = lat
		}
		return n
	case KindUnrolled, KindGeneric:
		length := int64(len(kn.gaps))
		base := kn.start
		i := int64(0)
		var n int64
		for base <= kn.last {
			visit(base)
			base += kn.gaps[i]
			i++
			if i == length {
				i = 0
			}
			n++
		}
		return n
	}
	return 0
}

// FillTraced is Fill with every store recorded as a write access.
func (kn *Kernel) FillTraced(mem []float64, v float64, ar *telemetry.AccessRecorder, rank int32, step uint32) int64 {
	telInvoked[kn.kind].Inc()
	return kn.Walk(func(a int64) {
		mem[a] = v
		ar.Record(rank, a, telemetry.AccessWrite, step)
	})
}

// MapTraced is Map with each element's load and store recorded.
func (kn *Kernel) MapTraced(mem []float64, f func(float64) float64, ar *telemetry.AccessRecorder, rank int32, step uint32) int64 {
	telInvoked[kn.kind].Inc()
	return kn.Walk(func(a int64) {
		x := mem[a]
		ar.Record(rank, a, telemetry.AccessRead, step)
		mem[a] = f(x)
		ar.Record(rank, a, telemetry.AccessWrite, step)
	})
}

// SumTraced is Sum with every load recorded as a read access.
func (kn *Kernel) SumTraced(mem []float64, ar *telemetry.AccessRecorder, rank int32, step uint32) (float64, int64) {
	telInvoked[kn.kind].Inc()
	var total float64
	n := kn.Walk(func(a int64) {
		total += mem[a]
		ar.Record(rank, a, telemetry.AccessRead, step)
	})
	return total, n
}
