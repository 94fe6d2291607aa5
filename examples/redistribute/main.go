// Redistribute: changing an array's cyclic(k) block size mid-computation,
// with planned communication sets: the whole-array assignment
// B(0:n-1) = A(0:n-1) between the two layouts.
//
// ScaLAPACK-style dense solvers pick the block size per phase: a large k
// for BLAS-3 locality, a small k for load balance. This example plans and
// executes the cyclic(64) → cyclic(4) redistribution of a 2048-element
// array over 8 processors, prints how much data stays put versus moves
// (information the plan exposes before any communication happens), and
// verifies the round trip.
//
//	go run ./examples/redistribute
package main

import (
	"fmt"
	"log"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/hpf"
	"repro/internal/machine"
	"repro/internal/section"
)

func main() {
	const (
		n     = 2048
		procs = 8
	)
	coarse := dist.MustNew(procs, 64) // BLAS-3 friendly
	fine := dist.MustNew(procs, 4)    // load-balance friendly

	src := hpf.MustNewArray(coarse, n)
	for i := int64(0); i < n; i++ {
		src.Set(i, float64(i))
	}

	// Inspect the plan before moving anything. Both layouts span the
	// same processors, so the diagonal of the traffic matrix stays put.
	whole := section.Section{Lo: 0, Hi: n - 1, Stride: 1}
	plan, err := comm.CachedPlan(fine, n, whole, coarse, n, whole)
	if err != nil {
		log.Fatal(err)
	}
	var stay int64
	for q := int64(0); q < procs; q++ {
		stay += plan.Volume(q, q)
	}
	fmt.Printf("redistribute %v -> %v over %d elements\n", coarse, fine, n)
	fmt.Printf("plan: %d elements stay on-processor, %d cross the network (%.1f%%)\n",
		stay, n-stay, 100*float64(n-stay)/float64(n))

	// Per-pair traffic matrix.
	fmt.Println("traffic matrix (rows: sender, cols: receiver):")
	for q := int64(0); q < procs; q++ {
		fmt.Printf("  q%-2d:", q)
		for r := int64(0); r < procs; r++ {
			fmt.Printf("%6d", plan.Volume(q, r))
		}
		fmt.Println()
	}

	// Execute on the simulated machine (the copy reuses the cached plan)
	// and verify.
	m := machine.MustNew(procs)
	mid := hpf.MustNewArray(fine, n)
	back := hpf.MustNewArray(coarse, n)
	if err := comm.Copy(m, mid, whole, src, whole); err != nil {
		log.Fatal(err)
	}
	if err := comm.Copy(m, back, whole, mid, whole); err != nil {
		log.Fatal(err)
	}
	for i := int64(0); i < n; i++ {
		if mid.Get(i) != float64(i) || back.Get(i) != float64(i) {
			log.Fatalf("element %d corrupted: mid=%v back=%v", i, mid.Get(i), back.Get(i))
		}
	}
	fmt.Println("verified: contents preserved through cyclic(64) -> cyclic(4) -> cyclic(64)")
}
