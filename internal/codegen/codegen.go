// Package codegen provides the node-code loop shapes of the paper's
// Figure 8: five interchangeable ways for a processor to stream through
// the local elements of a regular section using a memory-gap table (or,
// for the table-free variant, the basis vectors alone).
//
// Each shape executes the node part of the array assignment
// A(l:u:s) = value, writing value at every owned local address from the
// start address through the last address. The shapes differ only in how
// they cycle through the gap table — which is exactly the difference the
// paper measures in Table 2:
//
//	ShapeA — index advances with an explicit mod (Figure 8(a));
//	ShapeB — mod replaced by a test-and-reset (Figure 8(b));
//	ShapeC — doubly nested loop, inner for over the table (Figure 8(c));
//	ShapeD — offset-indexed tables chained by NextOffset (Figure 8(d));
//	ShapeWalker — no tables: regenerates gaps from R and L (Section 6.2).
//
// All shapes return the number of elements written so callers can verify
// coverage. The compiled kernels of kernel.go run ShapeB as the fill of
// their generic kind, and walk the same 8(b) gap cycle for map, sum and
// Walk through one inlined address iterator (cycleAddrs), beside one
// each for the constant-gap and row-stride kinds; ShapeD reproduces
// Table 2 and examples/stencil.
package codegen

import "repro/internal/core"

// ShapeA is Figure 8(a): the gap-table index wraps with a mod operation
// every iteration. The paper includes it "for conceptual reasons" — the
// mod makes it far slower than the alternatives (Table 2).
func ShapeA(mem []float64, start, last int64, deltaM []int64, value float64) int64 {
	if start < 0 || start > last {
		return 0
	}
	length := int64(len(deltaM))
	base := start
	i := int64(0)
	var n int64
	for base <= last {
		mem[base] = value
		base += deltaM[i]
		i = (i + 1) % length
		n++
	}
	return n
}

// ShapeB is Figure 8(b): the mod is replaced by a post-increment and a
// reset test. This is the shape Chatterjee et al.'s implementation
// actually used.
func ShapeB(mem []float64, start, last int64, deltaM []int64, value float64) int64 {
	if start < 0 || start > last {
		return 0
	}
	length := int64(len(deltaM))
	base := start
	i := int64(0)
	var n int64
	for base <= last {
		mem[base] = value
		base += deltaM[i]
		i++
		if i == length {
			i = 0
		}
		n++
	}
	return n
}

// ShapeC is Figure 8(c): an infinite outer loop around a for over the
// table, exiting from the middle. The regular inner loop gives the
// compiler a better scheduling window (Section 6.2).
func ShapeC(mem []float64, start, last int64, deltaM []int64, value float64) int64 {
	if start < 0 || start > last {
		return 0
	}
	base := start
	var n int64
	for {
		for i := 0; i < len(deltaM); i++ {
			mem[base] = value
			n++
			base += deltaM[i]
			if base > last {
				return n
			}
		}
	}
}

// ShapeD is Figure 8(d): deltaM is indexed by the element's local block
// offset and a second table chains offsets together. Two lookups per
// element, but the simplest control flow — the fastest shape in Table 2.
func ShapeD(mem []float64, start, last int64, tab core.OffsetTable, value float64) int64 {
	if start < 0 || start > last || tab.Start < 0 {
		return 0
	}
	base := start
	i := tab.Start
	var n int64
	for base <= last {
		mem[base] = value
		base += tab.Delta[i]
		i = tab.NextOffset[i]
		n++
	}
	return n
}

// ShapeWalker is the table-free variant of Section 6.2 (reference [12]):
// gaps are regenerated on the fly from the R/L basis tests, trading a
// small time penalty for zero table storage.
func ShapeWalker(mem []float64, last int64, w *core.Walker, value float64) int64 {
	base := w.StartLocal()
	if base < 0 || base > last {
		return 0
	}
	var n int64
	for base <= last {
		mem[base] = value
		base += w.Next()
		n++
	}
	return n
}
