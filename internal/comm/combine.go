package comm

import (
	"repro/internal/hpf"
	"repro/internal/machine"
	"repro/internal/section"
)

// BinOp combines the destination's current value with an incoming value.
type BinOp func(old, incoming float64) float64

// Add accumulates into the destination.
func Add(old, incoming float64) float64 { return old + incoming }

// ExecuteWith runs the planned transfer like Execute but combines each
// delivered value with the destination's current contents through op —
// the runtime primitive behind array statements like A(..) += B(..) and
// multi-operand expressions.
func (p *Plan) ExecuteWith(m *machine.Machine, dst, src *hpf.Array, op BinOp) error {
	if err := p.check(dst, src); err != nil {
		return err
	}
	return execute(m, dst, []operand{{e: p.compiled(), src: src, op: op}})
}

// Accumulate plans and executes dst(dstSec) op= src(srcSec), reusing a
// cached plan when the pattern recurs.
func Accumulate(m *machine.Machine, dst *hpf.Array, dstSec section.Section,
	src *hpf.Array, srcSec section.Section, op BinOp) error {
	plan, err := CachedPlan(dst.Layout(), dst.N(), dstSec, src.Layout(), src.N(), srcSec)
	if err != nil {
		return err
	}
	return plan.ExecuteWith(m, dst, src, op)
}

// Combine computes the elementwise expression
//
//	dst(dstSec) = combine(a(aSec), b(bSec))
//
// across arbitrary distributions as one SPMD step: the a-operand is
// stored into the destination section and the b-operand folded in with
// combine. Every operand value is read before any destination element
// is written, so dst may alias a or b (Fortran 90 array-assignment
// semantics).
func Combine(m *machine.Machine, dst *hpf.Array, dstSec section.Section,
	a *hpf.Array, aSec section.Section,
	b *hpf.Array, bSec section.Section, combine BinOp) error {
	pa, err := CachedPlan(dst.Layout(), dst.N(), dstSec, a.Layout(), a.N(), aSec)
	if err != nil {
		return err
	}
	pb, err := CachedPlan(dst.Layout(), dst.N(), dstSec, b.Layout(), b.N(), bSec)
	if err != nil {
		return err
	}
	return execute(m, dst, []operand{{e: pa.compiled(), src: a}, {e: pb.compiled(), src: b, op: combine}})
}
