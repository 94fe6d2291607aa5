package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/dist"
	"repro/internal/hpf"
	"repro/internal/plancache"
	"repro/internal/section"
	"repro/internal/telemetry"
)

// PlanRequest is the key tuple of one plan compilation: the cyclic(k)
// layout over p processors, the array extent n, and the regular section
// l:u:s. It is exactly the paper's (p, k, l, u, s) input, which makes
// the compiled response a pure function of the request — the property
// the ETag and the coalescing cache both rely on.
type PlanRequest struct {
	P int64 `json:"p"`           // processor count
	K int64 `json:"k"`           // cyclic block size
	L int64 `json:"l"`           // section lower bound
	U int64 `json:"u"`           // section upper bound (inclusive)
	S int64 `json:"s"`           // section stride (> 0)
	N int64 `json:"n,omitempty"` // array extent; defaults to u+1
}

// normalize applies defaults and validates the tuple, returning the
// canonical key every equivalent spelling maps to.
func (r PlanRequest) normalize() (PlanRequest, error) {
	// Hard caps keep one hostile request from pinning a compile worker:
	// the response carries O(p·k) gap entries, so p·k is capped too.
	const maxP, maxK, maxPK, maxN = 1 << 16, 1 << 20, 1 << 22, 1 << 40
	if r.N == 0 {
		// u < n ≤ maxN; checking u first keeps u+1 from wrapping.
		if r.U >= maxN {
			return r, fmt.Errorf("u = %d: the array extent n = u+1 exceeds the service limit %d", r.U, maxN)
		}
		r.N = r.U + 1
	}
	if r.P < 1 {
		return r, fmt.Errorf("p = %d: processor count must be >= 1", r.P)
	}
	if r.K < 1 {
		return r, fmt.Errorf("k = %d: block size must be >= 1", r.K)
	}
	if r.S < 1 {
		return r, fmt.Errorf("s = %d: stride must be >= 1 (normalize negative strides first)", r.S)
	}
	if r.L < 0 {
		return r, fmt.Errorf("l = %d: array indices start at 0", r.L)
	}
	if r.U < r.L {
		return r, fmt.Errorf("section %d:%d:%d is empty", r.L, r.U, r.S)
	}
	if r.N <= r.U {
		return r, fmt.Errorf("section upper bound %d outside array [0, %d)", r.U, r.N)
	}
	if r.P > maxP {
		return r, fmt.Errorf("p = %d exceeds the service limit %d", r.P, maxP)
	}
	if r.K > maxK {
		return r, fmt.Errorf("k = %d exceeds the service limit %d", r.K, maxK)
	}
	if r.P*r.K > maxPK {
		return r, fmt.Errorf("p·k = %d exceeds the service limit %d", r.P*r.K, maxPK)
	}
	if r.N > maxN {
		return r, fmt.Errorf("n = %d exceeds the service limit %d", r.N, maxN)
	}
	// With p·k ≤ 2²² and l < 2⁴⁰, s ≤ 2⁴⁰ keeps l + p·k·s below 2⁶³.
	if r.S > maxN {
		return r, fmt.Errorf("s = %d exceeds the service limit %d", r.S, maxN)
	}
	return r, nil
}

// RankPlan is one processor's compiled access plan: the global start
// index, the local start address, the owned-element count, the selected
// node-code kernel, and the AM gap table (cyclic; the rank's whole cycle
// window, even for a one-element rank, and omitted only when the rank
// owns nothing).
type RankPlan struct {
	Rank       int64   `json:"rank"`
	Start      int64   `json:"start"`       // global index of first owned element, -1 if none
	StartLocal int64   `json:"start_local"` // local memory address of the first element
	Count      int64   `json:"count"`
	Kernel     string  `json:"kernel"`
	Gaps       []int64 `json:"gaps,omitempty"`
}

// Transitions is the shared offset-indexed transition table of the
// configuration (Figure 8(d) in processor-independent form): one
// (gap, successor) pair per local offset serves every rank.
type Transitions struct {
	Delta []int64 `json:"delta"`
	Next  []int64 `json:"next"`
}

// PlanDoc is the hpfd/v1 response document for one key.
type PlanDoc struct {
	Schema      string       `json:"schema"` // "hpfd/v1"
	Key         PlanRequest  `json:"key"`
	Layout      string       `json:"layout"` // e.g. "cyclic(8) on 4 procs"
	SingleCycle bool         `json:"single_cycle"`
	Transitions *Transitions `json:"transitions,omitempty"`
	Ranks       []RankPlan   `json:"ranks"`
	TotalCount  int64        `json:"total_count"`
}

// PlanDocSchema tags the plan response document format.
const PlanDocSchema = "hpfd/v1"

// compiledPlan is what the server caches per key: the marshaled
// response body and its content hash. Both are immutable, so cached
// plans are served concurrently without copies.
type compiledPlan struct {
	body []byte
	etag string
}

// compile builds the full plan document for a normalized request: the
// shared AM-table set (through the process-wide coalescing table
// cache), every rank's plan and kernel from hpf.BuildPlans, and the
// serialized body with its deterministic ETag. Each phase records a
// child span of the caller's build span (hpfd.tables, hpfd.select,
// hpfd.encode) so per-phase attribution is visible in request traces.
func compile(ctx context.Context, req PlanRequest) (*compiledPlan, error) {
	layout, err := dist.New(req.P, req.K)
	if err != nil {
		return nil, err
	}
	sec := section.Section{Lo: req.L, Hi: req.U, Stride: req.S}
	asc, _ := sec.Ascending()
	_, tspan := telemetry.StartSpan(ctx, "hpfd.tables")
	ts, err := plancache.Tables(req.P, req.K, asc.Lo, asc.Stride)
	tspan.End()
	if err != nil {
		return nil, err
	}
	doc := PlanDoc{
		Schema:      PlanDocSchema,
		Key:         req,
		Layout:      layout.String(),
		SingleCycle: ts.SingleCycle(),
		Ranks:       make([]RankPlan, req.P),
	}
	if delta, next, ok := ts.Transitions(); ok {
		doc.Transitions = &Transitions{Delta: delta, Next: next}
	}
	_, sspan := telemetry.StartSpan(ctx, "hpfd.select")
	plans := hpf.BuildPlans(ts, layout, asc)
	for m := range plans {
		pl := &plans[m]
		doc.Ranks[m] = RankPlan{
			Rank:       int64(m),
			Start:      pl.GlobalStart(),
			StartLocal: pl.LocalStart(),
			Count:      pl.Count(),
			Kernel:     pl.Kernel().Kind().String(),
			Gaps:       pl.Gaps(),
		}
		doc.TotalCount += pl.Count()
	}
	sspan.End()
	_, espan := telemetry.StartSpan(ctx, "hpfd.encode")
	defer espan.End()
	body, err := json.Marshal(doc)
	if err != nil {
		return nil, err
	}
	body = append(body, '\n')
	sum := sha256.Sum256(body)
	return &compiledPlan{
		body: body,
		etag: `"` + hex.EncodeToString(sum[:16]) + `"`,
	}, nil
}
