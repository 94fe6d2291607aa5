// Package hpf provides the distributed-array runtime that the paper's
// address-generation routines plug into: HPF-style arrays partitioned
// over simulated processors with cyclic(k) distributions, and the
// section-level operations (fill, gather, pointwise update) that
// generated node code performs.
//
// An Array's storage is physically split into one packed local memory per
// processor, exactly as an HPF compiler would lay it out (paper,
// Section 1: "an array A distributed with a cyclic(k) distribution is
// effectively split into p subarrays, each being local to one
// processor"). Section operations never touch a global dense copy; they
// run per-processor through the AM tables of package core and the node
// code shapes of package codegen.
package hpf

import (
	"fmt"

	"repro/internal/codegen"
	"repro/internal/dist"
	"repro/internal/section"
	"repro/internal/telemetry"
)

// Section-op counters live in the process-wide registry so metric dumps
// show how often each node-loop entry point ran; when a tracer is
// active the ops also appear as host-timeline spans. Both are free of
// allocation, keeping the warm section path at 0 allocs/op.
var (
	telFillOps = telemetry.Default().Counter("hpf.fill_section_ops")
	telMapOps  = telemetry.Default().Counter("hpf.map_section_ops")
	telSumOps  = telemetry.Default().Counter("hpf.sum_section_ops")
)

// Array is a one-dimensional distributed array of float64.
type Array struct {
	layout dist.Layout
	n      int64
	local  [][]float64 // local[m] is processor m's packed memory
}

// NewArray allocates an n-element array distributed by layout. Local
// segments are zero-initialized.
func NewArray(layout dist.Layout, n int64) (*Array, error) {
	if n < 0 {
		return nil, fmt.Errorf("hpf: negative array size %d", n)
	}
	a := &Array{layout: layout, n: n}
	a.local = make([][]float64, layout.P())
	for m := int64(0); m < layout.P(); m++ {
		a.local[m] = make([]float64, layout.LocalCount(m, n))
	}
	return a, nil
}

// MustNewArray is NewArray but panics on error.
func MustNewArray(layout dist.Layout, n int64) *Array {
	a, err := NewArray(layout, n)
	if err != nil {
		panic(err)
	}
	return a
}

// N returns the global array length.
func (a *Array) N() int64 { return a.n }

// Layout returns the array's distribution.
func (a *Array) Layout() dist.Layout { return a.layout }

// LocalMem returns processor m's packed local memory. The slice aliases
// the array's storage; node code writes through it.
func (a *Array) LocalMem(m int64) []float64 { return a.local[m] }

// checkIndex panics on out-of-range access, like a Fortran bounds check.
func (a *Array) checkIndex(i int64) {
	if i < 0 || i >= a.n {
		panic(fmt.Sprintf("hpf: index %d out of range [0, %d)", i, a.n))
	}
}

// Get reads element i through the distribution.
func (a *Array) Get(i int64) float64 {
	a.checkIndex(i)
	return a.local[a.layout.Owner(i)][a.layout.Local(i)]
}

// Set writes element i through the distribution.
func (a *Array) Set(i int64, v float64) {
	a.checkIndex(i)
	a.local[a.layout.Owner(i)][a.layout.Local(i)] = v
}

// Gather copies the array into a dense global slice (for verification and
// I/O; distributed computations never need it).
func (a *Array) Gather() []float64 {
	out := make([]float64, a.n)
	for i := int64(0); i < a.n; i++ {
		out[i] = a.Get(i)
	}
	return out
}

// FillAll sets every element to v.
func (a *Array) FillAll(v float64) {
	for _, mem := range a.local {
		for i := range mem {
			mem[i] = v
		}
	}
}

// kindLabel names the kernel kind the plans compiled to (the kind of
// the first non-empty processor; all processors of a section share the
// same (p, k, l, s) class). Access-trace step labels carry it so the
// locality profiler can slice reuse profiles per kernel kind.
func (sp *sectionPlans) kindLabel() string {
	for m := range sp.plans {
		if sp.plans[m].start >= 0 {
			return sp.plans[m].kernel.Kind().String()
		}
	}
	return codegen.KindNone.String()
}

// beginStep returns the active access recorder and a new trace step
// labelled op:kind, or a nil recorder when access recording is off.
func (sp *sectionPlans) beginStep(op string) (*telemetry.AccessRecorder, uint32) {
	ar := telemetry.ActiveAccessRecorder()
	if ar == nil {
		return nil, 0
	}
	return ar, ar.BeginStep(op + ":" + sp.kindLabel())
}

// covered checks that a kernel traversed exactly the plan's elements.
func (pl *Plan) covered(verb string, n int64, m int) error {
	if n == pl.count {
		return nil
	}
	return fmt.Errorf("hpf: internal: %s %d of %d elements on proc %d", verb, n, pl.count, m)
}

// FillSection performs the array assignment A(sec) = v, dispatching each
// processor's specialized node-code kernel over its local memory. The
// per-processor plans (kernel included) come from the section-plan
// cache, so repeated assignments to the same section build no tables and
// re-run no selection after the first. With an access recorder active
// the op becomes one trace step and every store is recorded per rank.
func (a *Array) FillSection(sec section.Section, v float64) error {
	telFillOps.Inc()
	if tr := telemetry.ActiveTracer(); tr != nil {
		defer tr.EndSpan(telemetry.HostRank, "hpf.fill_section", tr.Now())
	}
	sp, err := a.cachedSectionPlans(sec)
	if err != nil || sp == nil {
		return err
	}
	ar, step := sp.beginStep("hpf.fill_section")
	for m := range sp.plans {
		plan := &sp.plans[m]
		if plan.start < 0 {
			continue
		}
		var wrote int64
		if ar != nil {
			wrote = plan.kernel.FillTraced(a.local[m], v, ar, int32(m), step)
		} else {
			wrote = plan.kernel.Fill(a.local[m], v)
		}
		if err := plan.covered("wrote", wrote, m); err != nil {
			return err
		}
	}
	return nil
}

// MapSection applies f to every element of A(sec) in place:
// A(sec) = f(A(sec)), through each processor's cached kernel.
func (a *Array) MapSection(sec section.Section, f func(float64) float64) error {
	telMapOps.Inc()
	if tr := telemetry.ActiveTracer(); tr != nil {
		defer tr.EndSpan(telemetry.HostRank, "hpf.map_section", tr.Now())
	}
	sp, err := a.cachedSectionPlans(sec)
	if err != nil || sp == nil {
		return err
	}
	ar, step := sp.beginStep("hpf.map_section")
	for m := range sp.plans {
		plan := &sp.plans[m]
		if plan.start < 0 {
			continue
		}
		var mapped int64
		if ar != nil {
			mapped = plan.kernel.MapTraced(a.local[m], f, ar, int32(m), step)
		} else {
			mapped = plan.kernel.Map(a.local[m], f)
		}
		if err := plan.covered("mapped", mapped, m); err != nil {
			return err
		}
	}
	return nil
}

// SumSection returns the sum over A(sec), computed per processor through
// each cached kernel and combined.
func (a *Array) SumSection(sec section.Section) (float64, error) {
	telSumOps.Inc()
	if tr := telemetry.ActiveTracer(); tr != nil {
		defer tr.EndSpan(telemetry.HostRank, "hpf.sum_section", tr.Now())
	}
	sp, err := a.cachedSectionPlans(sec)
	if err != nil || sp == nil {
		return 0, err
	}
	ar, step := sp.beginStep("hpf.sum_section")
	var total float64
	for m := range sp.plans {
		plan := &sp.plans[m]
		if plan.start < 0 {
			continue
		}
		var part float64
		var saw int64
		if ar != nil {
			part, saw = plan.kernel.SumTraced(a.local[m], ar, int32(m), step)
		} else {
			part, saw = plan.kernel.Sum(a.local[m])
		}
		if err := plan.covered("summed", saw, m); err != nil {
			return 0, err
		}
		total += part
	}
	return total, nil
}

// GatherSection copies A(sec) into a dense slice in traversal order
// (respecting descending sections).
func (a *Array) GatherSection(sec section.Section) ([]float64, error) {
	n := sec.Count()
	out := make([]float64, 0, n)
	if n == 0 {
		return out, nil
	}
	asc, _ := sec.Ascending()
	if asc.Lo < 0 || asc.Last() >= a.n {
		return nil, fmt.Errorf("hpf: section %v outside array [0, %d)", sec, a.n)
	}
	if ar := telemetry.ActiveAccessRecorder(); ar != nil {
		step := ar.BeginStep("hpf.gather_section")
		for j := int64(0); j < n; j++ {
			i := sec.Element(j)
			out = append(out, a.Get(i))
			ar.Record(int32(a.layout.Owner(i)), a.layout.Local(i), telemetry.AccessRead, step)
		}
		return out, nil
	}
	for j := int64(0); j < n; j++ {
		out = append(out, a.Get(sec.Element(j)))
	}
	return out, nil
}

// ScatterSection writes a dense slice into A(sec) in traversal order.
func (a *Array) ScatterSection(sec section.Section, vals []float64) error {
	n := sec.Count()
	if int64(len(vals)) != n {
		return fmt.Errorf("hpf: scatter length %d != section count %d", len(vals), n)
	}
	if n == 0 {
		return nil
	}
	asc, _ := sec.Ascending()
	if asc.Lo < 0 || asc.Last() >= a.n {
		return fmt.Errorf("hpf: section %v outside array [0, %d)", sec, a.n)
	}
	if ar := telemetry.ActiveAccessRecorder(); ar != nil {
		step := ar.BeginStep("hpf.scatter_section")
		for j := int64(0); j < n; j++ {
			i := sec.Element(j)
			a.Set(i, vals[j])
			ar.Record(int32(a.layout.Owner(i)), a.layout.Local(i), telemetry.AccessWrite, step)
		}
		return nil
	}
	for j := int64(0); j < n; j++ {
		a.Set(sec.Element(j), vals[j])
	}
	return nil
}
