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

// eachRank runs one section op: it counts it in ops, times it as the
// host span name when a tracer is active, and calls op once per
// processor that owns part of A(sec), processors in order, with that
// processor's cached kernel and local memory. ar is the active access
// recorder (nil when recording is off) and step the op's trace step,
// labelled name:kind. op returns the number of elements the kernel
// traversed, which must be the plan's count.
func (a *Array) eachRank(ops *telemetry.Counter, name, verb string, sec section.Section, op func(kn *codegen.Kernel, mem []float64, ar *telemetry.AccessRecorder, rank int32, step uint32) int64) error {
	ops.Inc()
	if tr := telemetry.ActiveTracer(); tr != nil {
		defer tr.EndSpan(telemetry.HostRank, name, tr.Now())
	}
	sp, err := a.cachedSectionPlans(sec)
	if err != nil || sp == nil {
		return err
	}
	ar, step := sp.beginStep(name)
	for m := range sp.plans {
		plan := &sp.plans[m]
		if plan.start < 0 {
			continue
		}
		if err := plan.covered(verb, op(&plan.kernel, a.local[m], ar, int32(m), step), m); err != nil {
			return err
		}
	}
	return nil
}

// FillSection performs the array assignment A(sec) = v, dispatching each
// processor's specialized node-code kernel over its local memory. The
// per-processor plans (kernel included) come from the section-plan
// cache, so repeated assignments to the same section build no tables and
// re-run no selection after the first. With an access recorder active
// the op becomes one trace step and every store is recorded per rank.
func (a *Array) FillSection(sec section.Section, v float64) error {
	return a.eachRank(telFillOps, "hpf.fill_section", "wrote", sec, func(kn *codegen.Kernel, mem []float64, ar *telemetry.AccessRecorder, rank int32, step uint32) int64 {
		if ar != nil {
			return kn.FillTraced(mem, v, ar, rank, step)
		}
		return kn.Fill(mem, v)
	})
}

// MapSection applies f to every element of A(sec) in place:
// A(sec) = f(A(sec)), through each processor's cached kernel.
func (a *Array) MapSection(sec section.Section, f func(float64) float64) error {
	return a.eachRank(telMapOps, "hpf.map_section", "mapped", sec, func(kn *codegen.Kernel, mem []float64, ar *telemetry.AccessRecorder, rank int32, step uint32) int64 {
		if ar != nil {
			return kn.MapTraced(mem, f, ar, rank, step)
		}
		return kn.Map(mem, f)
	})
}

// SumSection returns the sum over A(sec), computed per processor through
// each cached kernel and combined.
func (a *Array) SumSection(sec section.Section) (float64, error) {
	var total float64
	err := a.eachRank(telSumOps, "hpf.sum_section", "summed", sec, func(kn *codegen.Kernel, mem []float64, ar *telemetry.AccessRecorder, rank int32, step uint32) int64 {
		var part float64
		var n int64
		if ar != nil {
			part, n = kn.SumTraced(mem, ar, rank, step)
		} else {
			part, n = kn.Sum(mem)
		}
		total += part
		return n
	})
	if err != nil {
		return 0, err
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
