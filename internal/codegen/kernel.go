package codegen

// Kernel specialization: instead of interpreting one generic loop shape
// (ShapeB) for every workload, the runtime compiles each cached section
// plan into the most specific node-code kernel its parameters admit —
// the Section 6.1 "compile-time constants" observation pushed one level
// further. The specialized kinds go beyond the paper's Figure 8 menu:
//
//	KindConstGap   — table-free constant-stride loop. Covers every
//	                 uniform-gap table: cyclic(1) distributions (k = 1),
//	                 unit-stride sections (all gaps 1), degenerate
//	                 length-1 tables, and block distributions whose
//	                 traversal stays inside one block row (gap ≡ s).
//	KindUnrolled   — small-period tables (period ≤ MaxUnrollPeriod): the
//	                 fill folds the gap sequence into cumulative offsets
//	                 held in registers and unrolls the loop by the period,
//	                 so one trip-count test covers a whole period. Map,
//	                 sum and walk run the generic gap cycle, which an
//	                 unrolled copy did not consistently beat; the fill is
//	                 where unrolling pays (EXPERIMENTS.md).
//	KindRowStride  — table-free row decomposition for s ≤ k: within one
//	                 block row the owned section elements are a constant-
//	                 stride run (consecutive globals in a block differ by
//	                 exactly s), and the first touched offset advances by
//	                 (-pk) mod s per row, so the kernel needs no tables at
//	                 all. This is the fast path for the gcd(s,pk)=1
//	                 family, whose period-k tables defeat unrolling.
//	KindGeneric    — the Figure 8(b) control flow, the paper's baseline
//	                 and the fallback when nothing more specific applies.
//
// Every kind runs the fill/map/sum ops the runtime (internal/hpf)
// executes through one dispatch. Each traversal shape is written once,
// as an address iterator (constAddrs, rowAddrs, cycleAddrs) that the
// compiler inlines into Map, Sum and Walk; only the fills keep loops of
// their own, where a specialized store loop measurably wins. The
// generic fill is the Figure 8(b) loop itself (ShapeB). The
// Figure 8(d) offset-dispatch shape (ShapeD) is a Table 2 reproduction
// only: every plan has a gap window into its table set's shared cycle
// buffer, so running off the transition tables alone would save no
// storage, and their dependent next[] load chain is slower than the gap
// scan. Selection happens once, at plan-compile time (Select), and the
// chosen Kernel is stored in the cached plan; steady-state traversal
// performs no allocation and no re-selection.

import (
	"repro/internal/core"
	"repro/internal/telemetry"
)

// KernelKind names one specialized node-code kernel family.
type KernelKind uint8

// The kernel families, from most to least specialized.
const (
	KindNone      KernelKind = iota // processor owns nothing
	KindConstGap                    // table-free, constant stride
	KindUnrolled                    // period ≤ MaxUnrollPeriod, unrolled fill
	KindRowStride                   // table-free row decomposition (s ≤ k)
	KindGeneric                     // Figure 8(b) baseline
	numKernelKinds
)

func (k KernelKind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindConstGap:
		return "constgap"
	case KindUnrolled:
		return "unrolled"
	case KindRowStride:
		return "rowstride"
	case KindGeneric:
		return "generic"
	}
	return "invalid"
}

// MaxUnrollPeriod is the largest AM-table period the selector unrolls.
// Beyond 8 the cumulative offsets no longer fit the register budget and
// the per-period savings stop paying for the code growth.
const MaxUnrollPeriod = 8

// Per-kind selection and invocation counters. Selection is counted once
// per Select, invocation once per op call; both record through atomic
// counters so the warm path stays allocation free.
var (
	telSelected [numKernelKinds]*telemetry.Counter
	telInvoked  [numKernelKinds]*telemetry.Counter
)

func init() {
	r := telemetry.Default()
	for k := KernelKind(0); k < numKernelKinds; k++ {
		telSelected[k] = r.Counter("codegen.kernel_selected." + k.String())
		telInvoked[k] = r.Counter("codegen.kernel_invocations." + k.String())
	}
}

// Spec is everything the selector may consult about one per-processor
// node-loop pattern, gathered at plan-compile time: the core problem,
// the local start/last addresses and element count of the bounded
// traversal, and the AM gap table.
type Spec struct {
	Problem core.Problem
	Start   int64 // local address of the first owned element, -1 if none
	Last    int64 // local address of the last owned element
	Count   int64 // number of owned elements in bounds
	Gaps    []int64
}

// Kernel is a compiled node loop: one selected kind plus exactly the
// parameters that kind consumes. Kernels are immutable after Select and
// safe for concurrent use; slice fields alias the (read-only) tables of
// the spec they were compiled from.
type Kernel struct {
	kind  KernelKind
	start int64
	last  int64
	count int64

	gap  int64   // KindConstGap; KindRowStride: s, the gap inside a row
	gaps []int64 // KindGeneric, KindUnrolled

	prefix []int64 // KindUnrolled: cumulative offsets, prefix[0] = 0
	cycle  int64   // KindUnrolled: local advance per full period

	blockK  int64 // KindRowStride: k (row length in local memory)
	rowStep int64 // KindRowStride: (-pk) mod s
	rowEnd  int64 // KindRowStride: end (exclusive) of start's row
	lat     int64 // KindRowStride: start's row offset mod s
}

// Kind returns the selected kernel family.
func (kn *Kernel) Kind() KernelKind { return kn.kind }

// Count returns the number of elements one traversal covers.
func (kn *Kernel) Count() int64 { return kn.count }

// uniformGap reports whether every table entry equals the first (an
// empty table is trivially uniform; its gap is never consumed).
func uniformGap(gaps []int64) (int64, bool) {
	if len(gaps) == 0 {
		return 0, true
	}
	g := gaps[0]
	for _, x := range gaps[1:] {
		if x != g {
			return 0, false
		}
	}
	return g, true
}

// constGap reports the spec's single executed gap when its gap table is
// uniform. An empty gap table is only conclusive for a single-element
// traversal.
func (sp *Spec) constGap() (int64, bool) {
	g, ok := uniformGap(sp.Gaps)
	return g, ok && (len(sp.Gaps) > 0 || sp.Count == 1)
}

// unrollable reports whether the gap table's period admits KindUnrolled.
func (sp *Spec) unrollable() bool {
	p := len(sp.Gaps)
	return p > 1 && p <= MaxUnrollPeriod
}

// The setters below turn a kernel holding the spec's bounds into one
// kind each; Select and Candidates both build their kernels through
// them, so a kind's parameters are derived in exactly one place.

func (kn *Kernel) setConstGap(gap int64) { kn.kind, kn.gap = KindConstGap, gap }

// setUnrolled folds the gap sequence into cumulative offsets for the
// fill and keeps the gaps for the generic loop the other ops run.
func (kn *Kernel) setUnrolled(gaps []int64) {
	kn.kind, kn.gaps = KindUnrolled, gaps
	kn.prefix = make([]int64, len(gaps))
	for i, g := range gaps {
		kn.prefix[i] = kn.cycle
		kn.cycle += g
	}
}

// setRowStride also derives the first row's end and offset, so that the
// row iterator starts from fields alone and stays small enough to inline.
func (kn *Kernel) setRowStride(pr core.Problem) {
	kn.kind, kn.blockK, kn.gap, kn.rowStep = KindRowStride, pr.K, pr.S, rowStepFor(pr)
	off := kn.start % pr.K
	kn.rowEnd, kn.lat = kn.start-off+pr.K, off%pr.S
}

func (kn *Kernel) setGeneric(gaps []int64) { kn.kind, kn.gaps = KindGeneric, gaps }

// Select chooses the most specialized kernel the spec admits and counts
// the choice in codegen.kernel_selected.<kind>. The kernel is a pure
// function of the spec: selection for a given Problem and bounds is
// deterministic.
func Select(sp Spec) (kn Kernel) {
	defer func() { telSelected[kn.kind].Inc() }()
	kn = Kernel{start: sp.Start, last: sp.Last, count: sp.Count}
	if sp.Count <= 0 || sp.Start < 0 {
		kn.kind = KindNone
		kn.count = 0
		return kn
	}
	k, s := sp.Problem.K, sp.Problem.S
	if g, ok := sp.constGap(); ok {
		kn.setConstGap(g)
		return kn
	}
	if sp.Last < k {
		// The whole traversal stays inside one block row (the block-
		// distribution case): consecutive owned section elements lie in
		// the same block, so every executed gap is exactly s even though
		// the full cyclic table is not uniform.
		kn.setConstGap(s)
		return kn
	}
	if sp.unrollable() {
		kn.setUnrolled(sp.Gaps)
		return kn
	}
	if s <= k {
		// Dense rows: at least one element per k/s ≥ 1 local cells, so the
		// per-row bookkeeping amortizes and no table is touched at all.
		kn.setRowStride(sp.Problem)
		return kn
	}
	kn.setGeneric(sp.Gaps)
	return kn
}

// rowStepFor returns (-pk) mod s: how far the first touched offset of a
// block row moves between consecutive rows of the same processor.
func rowStepFor(pr core.Problem) int64 {
	pk := pr.P * pr.K
	return (pr.S - pk%pr.S) % pr.S
}

// Candidates returns every kernel that is valid for the spec (the
// selected one included), most specialized first. Differential tests
// and the fuzz target use it to cross-check that all kernels write the
// identical element set; it is not part of the hot path (its Select
// call still counts as one selection).
func Candidates(sp Spec) []Kernel {
	sel := Select(sp)
	out := []Kernel{sel}
	if sel.kind == KindNone {
		return out
	}
	add := func(set func(kn *Kernel)) {
		kn := Kernel{start: sp.Start, last: sp.Last, count: sp.Count}
		set(&kn)
		if kn.kind != sel.kind {
			out = append(out, kn)
		}
	}
	if g, ok := sp.constGap(); ok {
		add(func(kn *Kernel) { kn.setConstGap(g) })
	}
	if sp.unrollable() {
		add(func(kn *Kernel) { kn.setUnrolled(sp.Gaps) })
	}
	// RowStride is correct for every stride (rows without elements fall
	// through the inner loop); s ≤ k is only the performance heuristic.
	add(func(kn *Kernel) { kn.setRowStride(sp.Problem) })
	if sp.Gaps != nil {
		add(func(kn *Kernel) { kn.setGeneric(sp.Gaps) })
	}
	return out
}

// ---------------------------------------------------------------------
// Op dispatch. Each op returns the number of elements traversed so
// callers can verify coverage against the plan's count.

// Fill writes v at every traversed address: A(l:u:s) = v.
func (kn *Kernel) Fill(mem []float64, v float64) int64 {
	telInvoked[kn.kind].Inc()
	switch kn.kind {
	case KindConstGap:
		return kn.fillConst(mem, v)
	case KindUnrolled:
		return kn.fillUnrolled(mem, v)
	case KindRowStride:
		return kn.fillRow(mem, v)
	case KindGeneric:
		return ShapeB(mem, kn.start, kn.last, kn.gaps, v)
	}
	return 0
}

// Map applies f in place at every traversed address, in access order.
func (kn *Kernel) Map(mem []float64, f func(float64) float64) int64 {
	telInvoked[kn.kind].Inc()
	var n int64
	switch kn.kind {
	case KindConstGap:
		for a := range kn.constAddrs {
			mem[a] = f(mem[a])
		}
		n = kn.count
	case KindRowStride:
		for a := range kn.rowAddrs {
			mem[a] = f(mem[a])
			n++
		}
	case KindUnrolled, KindGeneric:
		for a := range kn.cycleAddrs {
			mem[a] = f(mem[a])
			n++
		}
	}
	return n
}

// Sum accumulates the traversed elements in access order and returns
// the total along with the element count.
func (kn *Kernel) Sum(mem []float64) (float64, int64) {
	telInvoked[kn.kind].Inc()
	var total float64
	var n int64
	switch kn.kind {
	case KindConstGap:
		for a := range kn.constAddrs {
			total += mem[a]
		}
		n = kn.count
	case KindRowStride:
		for a := range kn.rowAddrs {
			total += mem[a]
			n++
		}
	case KindUnrolled, KindGeneric:
		for a := range kn.cycleAddrs {
			total += mem[a]
			n++
		}
	}
	return total, n
}

// ---------------------------------------------------------------------
// Address iterators: one per traversal shape, each small enough that
// the compiler inlines it, and the loop body ranged over it, into Map,
// Sum and Walk — so the ops pay no closure call per element and
// allocate nothing. Each yields the kernel's local addresses in access
// order.

// constAddrs yields count addresses gap apart from start. It is count-
// driven because a single-element table may carry a zero gap.
func (kn *Kernel) constAddrs(yield func(int64) bool) {
	a, gap := kn.start, kn.gap
	for r := kn.count; r > 0; r-- {
		if !yield(a) {
			return
		}
		a += gap
	}
}

// rowAddrs walks block rows: inside a row the owned section elements
// are a constant-stride run gap = s apart, and the first touched offset
// of the next row is the previous one advanced by rowStep, mod s. No
// tables. When s > k a row may hold no element; the row-advance loop
// steps over it.
func (kn *Kernel) rowAddrs(yield func(int64) bool) {
	a, last, s, end, lat := kn.start, kn.last, kn.gap, kn.rowEnd, kn.lat
	for a <= last {
		if !yield(a) {
			return
		}
		for a += s; a >= end; end += kn.blockK {
			if lat += kn.rowStep; lat >= s {
				lat -= s
			}
			a = end + lat
		}
	}
}

// cycleAddrs is the Figure 8(b) gap cycle: advance by the next table
// gap, resetting the index with a test instead of a mod.
func (kn *Kernel) cycleAddrs(yield func(int64) bool) {
	a, last, gaps, i := kn.start, kn.last, kn.gaps, 0
	for a <= last {
		if !yield(a) {
			return
		}
		a += gaps[i]
		if i++; i == len(gaps) {
			i = 0
		}
	}
}

// ---------------------------------------------------------------------
// Fills keep loops of their own, which beat a store per iterator step.
// The constant-gap fill runs over a subslice for unit gaps, so the
// compiler drops the per-store bounds check, and four stores per trip
// otherwise.

func (kn *Kernel) fillConst(mem []float64, v float64) int64 {
	if kn.gap == 1 {
		seg := mem[kn.start : kn.start+kn.count]
		for i := range seg {
			seg[i] = v
		}
		return kn.count
	}
	if kn.gap <= 0 {
		// A zero gap only arises from an empty table, i.e. count ≤ 1.
		if kn.count > 0 {
			mem[kn.start] = v
		}
		return kn.count
	}
	return fillStrided(mem, kn.start, kn.last, kn.gap, v)
}

// fillStrided writes v at start, start+stride, …, last — four stores
// per trip so the loop-control overhead amortizes over wide strides.
func fillStrided(mem []float64, start, last, stride int64, v float64) int64 {
	a := start
	var n int64
	s2 := 2 * stride
	s3 := s2 + stride
	for a+s3 <= last {
		mem[a] = v
		mem[a+stride] = v
		mem[a+s2] = v
		mem[a+s3] = v
		a += s3 + stride
		n += 4
	}
	for ; a <= last; a += stride {
		mem[a] = v
		n++
	}
	return n
}

// KindUnrolled fill: the gap sequence becomes cumulative offsets; full
// periods execute with one trip-count test and constant offsets, the
// remainder walks the prefix table once.

func (kn *Kernel) fillUnrolled(mem []float64, v float64) int64 {
	base := kn.start
	pre, cyc := kn.prefix, kn.cycle
	period := int64(len(pre))
	full, rem := kn.count/period, kn.count%period
	switch period {
	case 2:
		c1 := pre[1]
		for ; full > 0; full-- {
			mem[base] = v
			mem[base+c1] = v
			base += cyc
		}
	case 3:
		c1, c2 := pre[1], pre[2]
		for ; full > 0; full-- {
			mem[base] = v
			mem[base+c1] = v
			mem[base+c2] = v
			base += cyc
		}
	case 4:
		c1, c2, c3 := pre[1], pre[2], pre[3]
		for ; full > 0; full-- {
			mem[base] = v
			mem[base+c1] = v
			mem[base+c2] = v
			mem[base+c3] = v
			base += cyc
		}
	case 5:
		c1, c2, c3, c4 := pre[1], pre[2], pre[3], pre[4]
		for ; full > 0; full-- {
			mem[base] = v
			mem[base+c1] = v
			mem[base+c2] = v
			mem[base+c3] = v
			mem[base+c4] = v
			base += cyc
		}
	case 6:
		c1, c2, c3, c4, c5 := pre[1], pre[2], pre[3], pre[4], pre[5]
		for ; full > 0; full-- {
			mem[base] = v
			mem[base+c1] = v
			mem[base+c2] = v
			mem[base+c3] = v
			mem[base+c4] = v
			mem[base+c5] = v
			base += cyc
		}
	case 7:
		c1, c2, c3, c4, c5, c6 := pre[1], pre[2], pre[3], pre[4], pre[5], pre[6]
		for ; full > 0; full-- {
			mem[base] = v
			mem[base+c1] = v
			mem[base+c2] = v
			mem[base+c3] = v
			mem[base+c4] = v
			mem[base+c5] = v
			mem[base+c6] = v
			base += cyc
		}
	case 8:
		c1, c2, c3, c4, c5, c6, c7 := pre[1], pre[2], pre[3], pre[4], pre[5], pre[6], pre[7]
		for ; full > 0; full-- {
			mem[base] = v
			mem[base+c1] = v
			mem[base+c2] = v
			mem[base+c3] = v
			mem[base+c4] = v
			mem[base+c5] = v
			mem[base+c6] = v
			mem[base+c7] = v
			base += cyc
		}
	default:
		for ; full > 0; full-- {
			for _, off := range pre {
				mem[base+off] = v
			}
			base += cyc
		}
	}
	for _, off := range pre[:rem] {
		mem[base+off] = v
	}
	return kn.count
}

// fillRow fills rowAddrs' rows, each with fillStrided.
func (kn *Kernel) fillRow(mem []float64, v float64) int64 {
	var n int64
	a, lat := kn.start, kn.lat
	for rowBase := kn.rowEnd - kn.blockK; rowBase <= kn.last; rowBase += kn.blockK {
		end := rowBase + kn.blockK - 1
		if end > kn.last {
			end = kn.last
		}
		n += fillStrided(mem, a, end, kn.gap, v)
		lat += kn.rowStep
		if lat >= kn.gap {
			lat -= kn.gap
		}
		a = rowBase + kn.blockK + lat
	}
	return n
}
