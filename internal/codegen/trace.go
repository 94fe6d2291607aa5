package codegen

// Access-traced kernel execution. Every kernel kind can enumerate the
// exact local-address sequence its node loop touches (Walk), and each
// of the three ops (fill, map, sum) has a *Traced variant that performs
// the same work as its untraced twin while streaming (addr, rw, step)
// records into the active telemetry.AccessRecorder. The traced variants
// are dispatched by internal/hpf only when a recorder is installed, so
// the untraced hot paths carry no recording branch. Walk ranges over the
// same address iterators as Map and Sum, so its order is theirs by
// construction; the traced ops run on Walk and accept its closure call
// per element — recording is an observability mode, not a production
// path.

import "repro/internal/telemetry"

// Walk calls visit with every local address the kernel's traversal
// touches, in access order, and returns the number of addresses
// visited. It is the address-sequence oracle for the traced ops, the
// reuse-distance profiler and the differential tests; it performs no
// memory operation itself.
func (kn *Kernel) Walk(visit func(addr int64)) int64 {
	var n int64
	switch kn.kind {
	case KindConstGap:
		for a := range kn.constAddrs {
			visit(a)
		}
		n = kn.count
	case KindRowStride:
		for a := range kn.rowAddrs {
			visit(a)
			n++
		}
	case KindUnrolled, KindGeneric:
		for a := range kn.cycleAddrs {
			visit(a)
			n++
		}
	}
	return n
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
