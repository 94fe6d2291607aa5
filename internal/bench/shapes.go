package bench

// The shapes matrix: generic Figure 8 node code (shapes A–D plus the
// table-free walker) against the specialized kernels that plan
// compilation selects, one (k, stride) family per kernel kind. This is
// the evaluation for the kernel-specialization layer: Table 2 shows the
// paper's shapes against each other; this matrix shows what compiling
// the plan into the most specific admissible kernel buys on top.

import (
	"fmt"
	"strings"

	"repro/internal/codegen"
)

// ShapeFamily is one (k, stride) workload family of the shapes matrix,
// chosen so the selector maps it to a specific kernel kind.
type ShapeFamily struct {
	Name string
	K    int64 // 0 means "smallest power of two > S·elems" (block family)
	S    int64
	Want codegen.KernelKind // expected selection (informational)
}

// ShapeFamilies returns the benchmark families, one per specialized
// kernel kind plus a generic-fallback control. Strides are chosen so
// the AM table stays non-uniform for power-of-two processor counts:
// k·(p−1) ≡ 0 (mod s) collapses a family to const gap (the boundary
// gap equals s too), e.g. (k=4, s=7) at p = 8.
func ShapeFamilies() []ShapeFamily {
	return []ShapeFamily{
		{Name: "cyclic1", K: 1, S: 3, Want: codegen.KindConstGap},
		{Name: "unit-stride", K: 256, S: 1, Want: codegen.KindConstGap},
		{Name: "block", K: 0, S: 3, Want: codegen.KindConstGap},
		{Name: "unroll4", K: 4, S: 9, Want: codegen.KindUnrolled},
		{Name: "unroll8", K: 8, S: 5, Want: codegen.KindUnrolled},
		{Name: "rowstride", K: 256, S: 5, Want: codegen.KindRowStride},
		{Name: "generic", K: 256, S: 999, Want: codegen.KindGeneric},
	}
}

// blockK returns the smallest power of two large enough that a sweep of
// elems stride-S assignments stays inside one block row — the block
// (k ≥ m) distribution family.
func blockK(s, elems int64) int64 {
	k := int64(1)
	for k <= s*elems+1 {
		k *= 2
	}
	return k
}

// SpecializedKernel compiles the workload's node loop exactly as the
// hpf plan cache would: spec from the workload's bounds and gap table,
// deterministic selection.
func (w *Workload) SpecializedKernel() codegen.Kernel {
	return codegen.Select(codegen.Spec{
		Problem: w.pr,
		Start:   w.start,
		Last:    w.last,
		Count:   w.count,
		Gaps:    w.gaps,
	})
}

// ShapeBenchResult is the measured matrix row of one family.
type ShapeBenchResult struct {
	Family      string
	K, S        int64
	Elems       int64
	Kernel      codegen.KernelKind // what the selector picked
	Generic     map[Shape]Spread   // shapes A–D + walker
	Specialized Spread
}

// Speedup returns the specialized kernel's median speedup over the
// generic ShapeB baseline (the shape the runtime used before
// specialization).
func (r ShapeBenchResult) Speedup() float64 {
	if r.Specialized.Median <= 0 {
		return 0
	}
	return float64(r.Generic[ShapeB].Median) / float64(r.Specialized.Median)
}

// ShapeBench measures the full matrix: for each family, every generic
// Figure 8 shape and the specialized kernel, each sweeping elems
// assignments per processor (max over processors; median and quartiles
// over reps).
func ShapeBench(p, elems int64, reps int) ([]ShapeBenchResult, error) {
	var results []ShapeBenchResult
	for _, fam := range ShapeFamilies() {
		k := fam.K
		if k == 0 {
			k = blockK(fam.S, elems)
		}
		workloads, err := buildWorkloads(p, k, fam.S, elems)
		if err != nil {
			return nil, fmt.Errorf("family %s: %w", fam.Name, err)
		}
		kernels := make([]codegen.Kernel, p)
		for m := range workloads {
			kernels[m] = workloads[m].SpecializedKernel()
			// All processors of a family share (p, k, l, s); selection
			// differs only through degenerate bounds, which BuildWorkload
			// rules out.
			if kernels[m].Kind() != kernels[0].Kind() {
				return nil, fmt.Errorf("family %s: kernel kind differs across processors (%v vs %v)",
					fam.Name, kernels[0].Kind(), kernels[m].Kind())
			}
		}
		specialized := sweepOp(workloads, func(w *Workload) (int64, error) {
			return kernels[w.pr.M].Fill(w.mem, 1.0), nil
		})
		generic, sp, err := timeShapes(workloads, reps, specialized)
		if err != nil {
			return nil, fmt.Errorf("family %s: %w", fam.Name, err)
		}
		results = append(results, ShapeBenchResult{
			Family: fam.Name, K: k, S: fam.S, Elems: elems,
			Kernel: kernels[0].Kind(), Generic: generic, Specialized: sp[0],
		})
	}
	return results, nil
}

// FormatShapeBench renders the matrix with the speedup column the
// acceptance criterion reads (specialized vs generic ShapeB).
func FormatShapeBench(results []ShapeBenchResult) string {
	var b strings.Builder
	b.WriteString("Shapes matrix: generic Figure 8 shapes vs specialized kernels (median microseconds per sweep)\n")
	b.WriteString(fmt.Sprintf("%-16s%8s%6s%16s", "family", "k", "s", "kernel"))
	for _, sh := range Shapes() {
		b.WriteString(fmt.Sprintf("%12s", sh))
	}
	b.WriteString(fmt.Sprintf("%12s%10s\n", "specialized", "vs 8(b)"))
	for _, r := range results {
		b.WriteString(fmt.Sprintf("%-16s%8d%6d%16s", r.Family, r.K, r.S, r.Kernel))
		for _, sh := range Shapes() {
			b.WriteString(fmt.Sprintf("%12.1f", us(r.Generic[sh].Median)))
		}
		b.WriteString(fmt.Sprintf("%12.1f%9.2fx\n", us(r.Specialized.Median), r.Speedup()))
	}
	return b.String()
}
