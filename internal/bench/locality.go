package bench

// The locality matrix: block vs cyclic(k) reuse-distance profiles for
// the Figure 8 shape families. Each family's node loop runs through the
// specialized kernels with the telemetry access recorder capturing the
// exact per-processor address stream, and the reuse package computes the
// Olken stack distances. Distances are taken at cache-line
// granularity (LineElems elements per line): at element granularity a
// repeated strict sweep has the same reuse profile under every layout,
// while at line granularity the AM gap sequence's burstiness — bunched
// small gaps inside a block row, long jumps across rows — is exactly
// what separates a cyclic(k) layout from a block one.

import (
	"fmt"
	"strings"

	"repro/internal/codegen"
	"repro/internal/reuse"
	"repro/internal/telemetry"
)

// LineElems is the cache-line granularity of the locality matrix:
// 8 float64 elements per 64-byte line.
const LineElems = 8

// LocalityProfile is the aggregated (all ranks) reuse profile of one
// layout of one family, at cache-line granularity.
type LocalityProfile struct {
	K        int64              // block size of the measured cyclic(k) layout
	Kernel   codegen.KernelKind // what plan compilation selected
	Accesses int64              // recorded accesses across all ranks
	Lines    int64              // distinct lines touched (cold misses)
	MeanDist float64            // mean finite reuse distance, in lines
	MaxDist  int64
	// MissRates are exact LRU miss rates for caches of CacheSize lines.
	MissRates []reuse.MissEstimate
}

// LocalityResult is one family row of the matrix: the same stride-s
// sweep under the family's cyclic(k) layout and under a block layout
// (k large enough that every sweep stays inside one block row).
type LocalityResult struct {
	Family string
	S      int64
	Elems  int64
	Sweeps int
	Cyclic LocalityProfile
	Block  LocalityProfile
}

// profileLayout records sweeps full fill sweeps of every processor's
// node loop under the (p, k, s) layout and analyzes the trace. Ranks
// record into separate sequences, so each processor runs all its sweeps
// before the next one's workload is built: only one workload's memory
// and tables (O(k) for the block layouts) are live at a time.
func profileLayout(p, k, s, elems int64, sweeps int, sizes []int64) (LocalityProfile, error) {
	// Capacity covers every record so the profile sees the whole run.
	ar := telemetry.NewAccessRecorder(int(p), sweeps*int(elems))
	var kind codegen.KernelKind
	var step uint32
	for m := int64(0); m < p; m++ {
		w, err := BuildWorkload(p, k, s, m, elems)
		if err != nil {
			return LocalityProfile{}, err
		}
		kn := w.SpecializedKernel()
		if m == 0 {
			kind = kn.Kind()
			step = ar.BeginStep("bench.fill:" + kind.String())
		}
		for sw := 0; sw < sweeps; sw++ {
			if n := kn.FillTraced(w.mem, 1.0, ar, int32(m), step); n != w.count {
				return LocalityProfile{}, fmt.Errorf("bench: sweep wrote %d of %d elements", n, w.count)
			}
		}
	}
	if d := ar.Dropped(); d != 0 {
		return LocalityProfile{}, fmt.Errorf("bench: access recorder dropped %d records", d)
	}
	doc := ar.Doc()
	// Fold element addresses to cache lines before the distance analysis.
	for i := range doc.Seqs {
		accs := doc.Seqs[i].Accesses
		for j := range accs {
			accs[j].Addr /= LineElems
		}
	}
	rep := reuse.BuildReport(&doc, reuse.Options{CacheSizes: sizes})

	prof := LocalityProfile{K: k, Kernel: kind, MissRates: make([]reuse.MissEstimate, len(sizes))}
	for i, c := range sizes {
		prof.MissRates[i].CacheSize = c
	}
	var finiteSum float64
	for _, r := range rep.PerRank {
		prof.Accesses += r.Accesses
		prof.Lines += r.Distinct
		finite := r.Accesses - r.Distinct
		finiteSum += r.Hist.Mean * float64(finite)
		if r.Hist.Max > prof.MaxDist {
			prof.MaxDist = r.Hist.Max
		}
		for i, m := range r.MissRates {
			prof.MissRates[i].Misses += m.Misses
		}
	}
	if finite := prof.Accesses - prof.Lines; finite > 0 {
		prof.MeanDist = finiteSum / float64(finite)
	}
	for i := range prof.MissRates {
		if prof.Accesses > 0 {
			prof.MissRates[i].MissRate = float64(prof.MissRates[i].Misses) / float64(prof.Accesses)
		}
	}
	return prof, nil
}

// LocalityCacheSizes are the default LRU capacities of the matrix, in
// cache lines (64 B each): 32 KiB, 256 KiB and 2 MiB windows.
func LocalityCacheSizes() []int64 { return []int64{512, 4096, 32768} }

// LocalityBench measures the matrix: for every Figure 8 shape family,
// the reuse profile of sweeps stride-s fill sweeps under the family's
// cyclic(k) layout and under the block layout. nil sizes means
// LocalityCacheSizes.
func LocalityBench(p, elems int64, sweeps int, sizes []int64) ([]LocalityResult, error) {
	if sizes == nil {
		sizes = LocalityCacheSizes()
	}
	var results []LocalityResult
	for _, fam := range ShapeFamilies() {
		k := fam.K
		if k == 0 {
			k = blockK(fam.S, elems)
		}
		cyc, err := profileLayout(p, k, fam.S, elems, sweeps, sizes)
		if err != nil {
			return nil, fmt.Errorf("family %s cyclic(%d): %w", fam.Name, k, err)
		}
		blk, err := profileLayout(p, blockK(fam.S, elems), fam.S, elems, sweeps, sizes)
		if err != nil {
			return nil, fmt.Errorf("family %s block: %w", fam.Name, err)
		}
		results = append(results, LocalityResult{
			Family: fam.Name, S: fam.S, Elems: elems, Sweeps: sweeps,
			Cyclic: cyc, Block: blk,
		})
	}
	return results, nil
}

// FormatLocality renders the matrix: one family per row pair, cyclic(k)
// against block, with line-granularity miss rates per cache size.
func FormatLocality(results []LocalityResult) string {
	var b strings.Builder
	b.WriteString("Locality matrix: block vs cyclic(k) reuse-distance profiles (cache-line granularity)\n")
	b.WriteString(fmt.Sprintf("%-16s%-8s%10s%6s%16s%12s%12s%10s", "family", "layout", "k", "s", "kernel", "lines", "mean_dist", "max_dist"))
	if len(results) > 0 {
		for _, m := range results[0].Cyclic.MissRates {
			b.WriteString(fmt.Sprintf(" miss@%-6d", m.CacheSize))
		}
	}
	b.WriteString("\n")
	row := func(fam string, layout string, s int64, p LocalityProfile) {
		b.WriteString(fmt.Sprintf("%-16s%-8s%10d%6d%16s%12d%12.1f%10d", fam, layout, p.K, s, p.Kernel, p.Lines, p.MeanDist, p.MaxDist))
		for _, m := range p.MissRates {
			b.WriteString(fmt.Sprintf(" %9.1f%%", 100*m.MissRate))
		}
		b.WriteString("\n")
	}
	for _, r := range results {
		row(r.Family, "cyclic", r.S, r.Cyclic)
		row(r.Family, "block", r.S, r.Block)
	}
	return b.String()
}
