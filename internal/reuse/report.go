package reuse

// The locality report: reuse-distance profiles of a recorded access
// trace, sliced two ways — per rank (how well each processor's whole
// access stream reuses its local memory) and per step label (how each
// operation kind, e.g. "hpf.map_section:rowstride" or "comm.pack",
// reuses in the context of the full stream). Distances are always
// computed over a rank's complete sequence, so a label profile answers
// "when this kind of op touched memory, how far back was the previous
// touch" rather than pretending each op ran against a cold cache.

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/telemetry"
)

// DefaultCacheSizes are the fully-associative LRU capacities (in
// elements) the report estimates miss rates for when the caller does
// not choose: spanning an L1-sized window to an LLC-sized one at 8
// bytes per element.
func DefaultCacheSizes() []int64 { return []int64{512, 4096, 32768, 262144} }

// Options configures BuildReport.
type Options struct {
	// CacheSizes are the LRU capacities to estimate miss rates for;
	// nil means DefaultCacheSizes.
	CacheSizes []int64
}

// BucketCount is one non-empty histogram bucket in wire form.
type BucketCount struct {
	UpperBound int64 `json:"le"` // largest distance in the bucket
	Count      int64 `json:"count"`
}

// HistogramDoc is a Histogram in wire form (non-empty buckets only).
type HistogramDoc struct {
	Buckets []BucketCount `json:"buckets,omitempty"`
	Cold    int64         `json:"cold"`
	Total   int64         `json:"total"`
	Max     int64         `json:"max_distance"`
	Mean    float64       `json:"mean_distance"`
}

func (h *Histogram) doc() HistogramDoc {
	doc := HistogramDoc{Cold: h.Cold, Total: h.Total, Max: h.Max, Mean: h.Mean()}
	for i, c := range h.Counts {
		if c > 0 {
			doc.Buckets = append(doc.Buckets, BucketCount{UpperBound: BucketUpperBound(i), Count: c})
		}
	}
	return doc
}

// RankProfile is one rank's locality profile.
type RankProfile struct {
	Rank      int32          `json:"rank"`
	Accesses  int64          `json:"accesses"`
	Reads     int64          `json:"reads"`
	Writes    int64          `json:"writes"`
	Distinct  int64          `json:"distinct_addrs"` // == cold misses
	Hist      HistogramDoc   `json:"histogram"`
	MissRates []MissEstimate `json:"miss_rates,omitempty"`
}

// LabelProfile aggregates, across all ranks, the accesses recorded
// under one step label (all steps sharing the label pool together).
type LabelProfile struct {
	Label     string         `json:"label"`
	Accesses  int64          `json:"accesses"`
	Hist      HistogramDoc   `json:"histogram"`
	MissRates []MissEstimate `json:"miss_rates,omitempty"`
}

// Report is the full locality analysis of one access trace.
type Report struct {
	Ranks      int            `json:"ranks"`
	Sample     int64          `json:"sample"`
	Dropped    int64          `json:"dropped"`
	CacheSizes []int64        `json:"cache_sizes"`
	PerRank    []RankProfile  `json:"per_rank"`
	PerLabel   []LabelProfile `json:"per_label,omitempty"`
}

// BuildReport analyzes every rank sequence of the trace. Rank analyses
// run concurrently, one goroutine per rank.
func BuildReport(doc *telemetry.AccessDoc, opts Options) *Report {
	sizes := opts.CacheSizes
	if sizes == nil {
		sizes = DefaultCacheSizes()
	}
	rep := &Report{
		Ranks:      doc.Ranks,
		Sample:     doc.Sample,
		Dropped:    doc.Dropped,
		CacheSizes: sizes,
	}

	type rankResult struct {
		profile RankProfile
		dists   []int64
	}
	results := make([]rankResult, len(doc.Seqs))
	var wg sync.WaitGroup
	for i := range doc.Seqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			seq := &doc.Seqs[i]
			addrs := make([]int64, len(seq.Accesses))
			var reads, writes int64
			for j, a := range seq.Accesses {
				addrs[j] = a.Addr
				if a.Write {
					writes++
				} else {
					reads++
				}
			}
			dists := Distances(addrs)
			var h Histogram
			for _, d := range dists {
				h.Add(d)
			}
			results[i] = rankResult{
				profile: RankProfile{
					Rank:      seq.Rank,
					Accesses:  int64(len(addrs)),
					Reads:     reads,
					Writes:    writes,
					Distinct:  h.Cold,
					Hist:      h.doc(),
					MissRates: MissEstimates(dists, sizes),
				},
				dists: dists,
			}
		}(i)
	}
	wg.Wait()

	// Per-label slices: each access's distance, attributed to the label
	// of the step it was recorded under. A step listed twice keeps its
	// first label.
	stepLabel := make(map[uint32]string, len(doc.Steps))
	for _, s := range doc.Steps {
		if _, ok := stepLabel[s.Step]; !ok {
			stepLabel[s.Step] = s.Label
		}
	}
	labelHist := map[string]*Histogram{}
	labelDists := map[string][]int64{}
	for i := range doc.Seqs {
		seq := &doc.Seqs[i]
		for j, a := range seq.Accesses {
			label := stepLabel[a.Step]
			if label == "" {
				label = "(unlabeled)"
			}
			h := labelHist[label]
			if h == nil {
				h = &Histogram{}
				labelHist[label] = h
			}
			d := results[i].dists[j]
			h.Add(d)
			labelDists[label] = append(labelDists[label], d)
		}
		rep.PerRank = append(rep.PerRank, results[i].profile)
	}
	sort.Slice(rep.PerRank, func(a, b int) bool { return rep.PerRank[a].Rank < rep.PerRank[b].Rank })

	labels := make([]string, 0, len(labelHist))
	for l := range labelHist {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		h := labelHist[l]
		rep.PerLabel = append(rep.PerLabel, LabelProfile{
			Label:     l,
			Accesses:  h.Total,
			Hist:      h.doc(),
			MissRates: MissEstimates(labelDists[l], sizes),
		})
	}
	return rep
}

// WriteText renders the report as per-rank and per-label tables with a
// compact distance CDF.
func (r *Report) WriteText(w io.Writer) error {
	var err error
	pr := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	pr("Reuse-distance locality report (%d ranks, sample 1/%d)\n", r.Ranks, r.Sample)
	if r.Dropped > 0 {
		pr("WARNING: %d access records were overwritten (ring buffers full);\n", r.Dropped)
		pr("distances near the start of the run are missing or inflated.\n")
	}
	pr("\nper rank:\n")
	pr("%6s %10s %10s %10s %10s %12s %10s", "rank", "accesses", "reads", "writes", "distinct", "mean_dist", "max_dist")
	for _, c := range r.CacheSizes {
		pr(" miss@%-6d", c)
	}
	pr("\n")
	for _, p := range r.PerRank {
		pr("%6d %10d %10d %10d %10d %12.1f %10d", p.Rank, p.Accesses, p.Reads, p.Writes, p.Distinct, p.Hist.Mean, p.Hist.Max)
		for _, m := range p.MissRates {
			pr(" %9.1f%%", 100*m.MissRate)
		}
		pr("\n")
	}
	if len(r.PerLabel) > 0 {
		pr("\nper operation label:\n")
		pr("%-40s %10s %8s %12s %10s", "label", "accesses", "cold", "mean_dist", "max_dist")
		for _, c := range r.CacheSizes {
			pr(" miss@%-6d", c)
		}
		pr("\n")
		for _, p := range r.PerLabel {
			pr("%-40s %10d %8d %12.1f %10d", p.Label, p.Accesses, p.Hist.Cold, p.Hist.Mean, p.Hist.Max)
			for _, m := range p.MissRates {
				pr(" %9.1f%%", 100*m.MissRate)
			}
			pr("\n")
		}
	}
	return err
}
