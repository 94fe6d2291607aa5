package hpf

import (
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/section"
)

// Plan is one processor's node loop over a section (paper, Section
// 6.1): the start of its access sequence, the local address of its last
// element, its element count, its AM gap table, and the specialized
// kernel selected from them. A processor that owns nothing has start
// -1 and a KindNone kernel. Plans are immutable; the gap table is a
// read-only window shared with the other plans of the same build.
type Plan struct {
	global      int64 // global index of the first owned element, -1 if none
	start, last int64 // local addresses; start == -1 means nothing to do
	count       int64
	gaps        []int64
	kernel      codegen.Kernel
}

// GlobalStart returns the global index of the first owned element, or
// -1 if the processor owns none.
func (pl *Plan) GlobalStart() int64 { return pl.global }

// LocalStart returns the local address of the first owned element, or
// -1 if the processor owns none.
func (pl *Plan) LocalStart() int64 { return pl.start }

// Count returns the number of section elements the processor owns.
func (pl *Plan) Count() int64 { return pl.count }

// Gaps returns the processor's AM table (cyclic; nil if it owns nothing).
func (pl *Plan) Gaps() []int64 { return pl.gaps }

// Kernel returns the node-code kernel selected for the plan.
func (pl *Plan) Kernel() *codegen.Kernel { return &pl.kernel }

// BuildPlans builds every processor's plan for the non-empty ascending
// section asc under layout. ts must be the table set of (p, k, asc.Lo,
// asc.Stride), as plancache.Tables returns it: the basis vectors are
// shared, and one TableSet.Spans pass finds every processor's start,
// count and last element. The gap
// tables are zero-copy windows into that pass's shared cycle buffer, so
// only the kernel selections run per processor here.
func BuildPlans(ts *core.TableSet, layout dist.Layout, asc section.Section) []Plan {
	p, k := layout.P(), layout.K()
	spans := ts.Spans(asc.Last())
	plans := make([]Plan, p)
	for m := range spans {
		sp := &spans[m]
		if sp.Count == 0 {
			plans[m] = Plan{global: -1, start: -1, last: -1}
			continue
		}
		last := layout.Local(sp.Last)
		plans[m] = Plan{
			global: sp.Start,
			start:  sp.StartLocal,
			last:   last,
			count:  sp.Count,
			gaps:   sp.Gaps,
			kernel: codegen.Select(codegen.Spec{
				Problem: core.Problem{P: p, K: k, L: asc.Lo, S: asc.Stride, M: int64(m)},
				Start:   sp.StartLocal,
				Last:    last,
				Count:   sp.Count,
				Gaps:    sp.Gaps,
			}),
		}
	}
	return plans
}
