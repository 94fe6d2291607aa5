// Package comm generates and executes the communication sets for array
// assignment statements A(l_a:u_a:s_a) = B(l_b:u_b:s_b) between arrays
// with different cyclic(k) distributions — the compilation problem that
// motivates the paper's address-generation work (Section 7; cf. Gupta et
// al. and Stichnoth et al.).
//
// Position t of the assignment pairs destination element dstSec(t) with
// source element srcSec(t). On each side, the element's owner and block
// offset repeat every P = pk/gcd(|s|, pk) positions, so the (source
// owner, destination owner) pair of position t depends only on t mod
// L = lcm(P_src, P_dst). Each residue class t mod L below n is one
// transfer section, and the planner emits them in one pass over
// min(n, L) positions: its work is one step per section it returns.
//
// Each transfer section is also a constant-stride run in both local
// memories, so a plan compiles to one strided run per transfer section
// (pack base and step on the source rank, unpack base and step on the
// destination rank) and the executor packs and unpacks by walking runs,
// never a per-value address list.
package comm

import (
	"fmt"
	"reflect"
	"slices"
	"sync/atomic"

	"repro/internal/dist"
	"repro/internal/hpf"
	"repro/internal/intmath"
	"repro/internal/machine"
	"repro/internal/section"
	"repro/internal/telemetry"
)

// Plan is the full communication schedule of one array assignment:
// Transfers[q][r] lists, as sections over the position index t in
// ascending order of first position, the elements processor q sends to
// processor r. Both sides traverse each list in order, so packing and
// unpacking agree without extra metadata.
type Plan struct {
	NDst, NSrc int64
	DstSec     section.Section
	SrcSec     section.Section
	// Transfers[q][r] = position sections moved from source proc q to
	// destination proc r.
	Transfers [][][]section.Section

	// The layouts and lengths the plan was built for; Execute refuses
	// arrays that differ.
	dstLayout, srcLayout dist.Layout
	dstN, srcN           int64

	// exec caches the schedule compiled to strided runs, built on first
	// execution, so repeated executions (the cached steady state) index
	// straight into local memory instead of re-deriving section elements
	// and owner addresses per value.
	exec atomic.Pointer[planExec]
}

// planExec is a schedule compiled to local addresses: for every (source
// q, destination r) pair, the values it moves as a list of strided runs
// in transfer order. Built once per plan and reused by every execution;
// steady-state pack and unpack allocate nothing.
type planExec struct {
	nsrc, ndst int64    // source and destination rank counts
	pairs      [][]pair // [q][r]
}

// pair is the compiled (q → r) transfer: n values in total, moved run
// by run.
type pair struct {
	n    int
	runs []run
}

// run moves n values from source local addresses packBase,
// packBase+packStep, … to destination local addresses unpackBase,
// unpackBase+unpackStep, …. Steps may be negative (a descending
// section) and are 0 when n == 1.
type run struct {
	n                      int64
	packBase, packStep     int64
	unpackBase, unpackStep int64
}

// Compile count and count of compiled pairs with traffic, visible in
// metric dumps next to the plan-cache stats.
var (
	telExecCompiles = telemetry.Default().Counter("comm.exec_compiles")
	telPairsStrided = telemetry.Default().Counter("comm.exec_pairs_strided")
)

// newExec compiles the per-pair runs [q][r] of a schedule between
// len(runs) source and ndst destination ranks.
func newExec(ndst int64, runs [][][]run) *planExec {
	telExecCompiles.Inc()
	e := &planExec{nsrc: int64(len(runs)), ndst: ndst, pairs: make([][]pair, len(runs))}
	for q, row := range runs {
		e.pairs[q] = make([]pair, ndst)
		for r, rs := range row {
			var n int64
			for _, rn := range rs {
				n += rn.n
			}
			e.pairs[q][r] = pair{n: int(n), runs: rs}
			if n > 0 {
				telPairsStrided.Inc()
			}
		}
	}
	return e
}

// compiled returns the plan's compiled runs, building them on first
// use: one run per transfer section. A section of two or more positions
// has stride lcm(P_src, P_dst), a multiple of both sides' position
// periods, so its consecutive elements lie a whole number of layout rows
// apart at a fixed block offset, and their local addresses advance by a
// constant step, read off the section's first two positions. Concurrent builders race benignly:
// both compute identical runs and the last store wins.
func (p *Plan) compiled() *planExec {
	if e := p.exec.Load(); e != nil {
		return e
	}
	src := func(t int64) int64 { return p.srcLayout.Local(p.SrcSec.Element(t)) }
	dst := func(t int64) int64 { return p.dstLayout.Local(p.DstSec.Element(t)) }
	runs := make([][][]run, p.NSrc)
	for q := range runs {
		runs[q] = make([][]run, p.NDst)
		for r, ts := range p.Transfers[q] {
			for _, s := range ts {
				t := s.Element(0)
				rn := run{n: s.Count(), packBase: src(t), unpackBase: dst(t)}
				if rn.n > 1 {
					rn.packStep = src(s.Element(1)) - rn.packBase
					rn.unpackStep = dst(s.Element(1)) - rn.unpackBase
				}
				runs[q][r] = append(runs[q][r], rn)
			}
		}
	}
	e := newExec(p.NDst, runs)
	p.exec.Store(e)
	return e
}

// count returns the number of values the (q, r) pair moves.
func (e *planExec) count(q, r int64) int { return e.pairs[q][r].n }

// packInto appends the (q → r) source values to buf in transfer order.
// Allocation free when buf has capacity (Execute pre-sizes it through
// the machine's buffer pool).
func (e *planExec) packInto(buf []float64, mem []float64, q, r int64) []float64 {
	buf = slices.Grow(buf, e.pairs[q][r].n)
	for _, rn := range e.pairs[q][r].runs {
		a, step := rn.packBase, rn.packStep
		if step == 1 {
			buf = append(buf, mem[a:a+rn.n]...)
			continue
		}
		m := len(buf)
		buf = buf[:m+int(rn.n)]
		out := buf[m:]
		for i := range out {
			out[i] = mem[a]
			a += step
		}
	}
	return buf
}

// unpackFrom writes the received (q → r) values into destination local
// memory in transfer order. len(data) must equal count(q, r).
//
// Kept out of line: inlined into execute's SPMD body, the strided loop
// spills its counters to the stack on every element.
//
//go:noinline
func (e *planExec) unpackFrom(mem []float64, data []float64, q, r int64) {
	for _, rn := range e.pairs[q][r].runs {
		a, step := rn.unpackBase, rn.unpackStep
		if step == 1 {
			copy(mem[a:a+rn.n], data)
		} else {
			for _, v := range data[:rn.n] {
				mem[a] = v
				a += step
			}
		}
		data = data[rn.n:]
	}
}

// combineFrom is unpackFrom folding each delivered value into the
// destination through op (a folded operand's unpack path).
func (e *planExec) combineFrom(mem []float64, data []float64, q, r int64, op BinOp) {
	for _, rn := range e.pairs[q][r].runs {
		a, step := rn.unpackBase, rn.unpackStep
		for _, v := range data[:rn.n] {
			mem[a] = op(mem[a], v)
			a += step
		}
		data = data[rn.n:]
	}
}

// addFrom is combineFrom for op Add with the addition inlined: an
// indirect call per value costs several times the add itself.
//
//go:noinline
func (e *planExec) addFrom(mem []float64, data []float64, q, r int64) {
	for _, rn := range e.pairs[q][r].runs {
		a, step := rn.unpackBase, rn.unpackStep
		for _, v := range data[:rn.n] {
			mem[a] += v
			a += step
		}
		data = data[rn.n:]
	}
}

// addFn is Add's code pointer, which identifies an Add operand.
var addFn = reflect.ValueOf(Add).Pointer()

// packTraced is packInto with every source-memory load recorded on
// rank q's access timeline.
func (e *planExec) packTraced(buf []float64, mem []float64, q, r int64,
	ar *telemetry.AccessRecorder, step uint32) []float64 {
	for _, rn := range e.pairs[q][r].runs {
		a := rn.packBase
		for i := int64(0); i < rn.n; i++ {
			buf = append(buf, mem[a])
			ar.Record(int32(q), a, telemetry.AccessRead, step)
			a += rn.packStep
		}
	}
	return buf
}

// unpackTraced is unpackFrom (op nil) or combineFrom with every
// destination access recorded on rank r's access timeline: a store is
// one write, a fold the read-modify-write pair it performs.
func (e *planExec) unpackTraced(mem []float64, data []float64, q, r int64, op BinOp,
	ar *telemetry.AccessRecorder, step uint32) {
	for _, rn := range e.pairs[q][r].runs {
		a := rn.unpackBase
		for _, v := range data[:rn.n] {
			if op != nil {
				ar.Record(int32(r), a, telemetry.AccessRead, step)
				v = op(mem[a], v)
			}
			mem[a] = v
			ar.Record(int32(r), a, telemetry.AccessWrite, step)
			a += rn.unpackStep
		}
		data = data[rn.n:]
	}
}

// NewPlan computes the communication schedule for dst(dstSec) = src(srcSec).
// The two sections must have equal element counts and lie within their
// arrays' bounds.
func NewPlan(dstLayout dist.Layout, dstN int64, dstSec section.Section,
	srcLayout dist.Layout, srcN int64, srcSec section.Section) (*Plan, error) {
	if tr := telemetry.ActiveTracer(); tr != nil {
		defer tr.EndSpan(telemetry.HostRank, "comm.plan", tr.Now())
	}
	if dstN < 0 || srcN < 0 {
		return nil, fmt.Errorf("comm: negative array size: dst %d, src %d", dstN, srcN)
	}
	n := dstSec.Count()
	if sn := srcSec.Count(); sn != n {
		return nil, fmt.Errorf("comm: section size mismatch: dst %v has %d elements, src %v has %d",
			dstSec, n, srcSec, sn)
	}
	if n > 0 {
		if err := checkBounds(dstSec, dstN); err != nil {
			return nil, fmt.Errorf("comm: destination %v", err)
		}
		if err := checkBounds(srcSec, srcN); err != nil {
			return nil, fmt.Errorf("comm: source %v", err)
		}
	}
	p := &Plan{
		NDst:      dstLayout.P(),
		NSrc:      srcLayout.P(),
		DstSec:    dstSec,
		SrcSec:    srcSec,
		dstLayout: dstLayout,
		srcLayout: srcLayout,
		dstN:      dstN,
		srcN:      srcN,
	}
	p.Transfers = make([][][]section.Section, p.NSrc)
	for q := range p.Transfers {
		p.Transfers[q] = make([][]section.Section, p.NDst)
	}
	// One transfer section per residue class t mod L below n (see the
	// package comment). An lcm that overflows int64 exceeds n.
	period := n
	if l, err := intmath.LCM(positionPeriod(srcLayout, srcSec), positionPeriod(dstLayout, dstSec)); err == nil {
		period = min(n, l)
	}
	for t := int64(0); t < period; t++ {
		q := srcLayout.Owner(srcSec.Element(t))
		r := dstLayout.Owner(dstSec.Element(t))
		p.Transfers[q][r] = append(p.Transfers[q][r],
			section.Section{Lo: t, Hi: t + (n-1-t)/period*period, Stride: period})
	}
	return p, nil
}

// positionPeriod returns pk/gcd(|s|, pk): every that many positions, the
// section's element returns to the same owner and block offset.
func positionPeriod(l dist.Layout, sec section.Section) int64 {
	return l.RowLen() / intmath.GCD(sec.Stride, l.RowLen())
}

func checkBounds(sec section.Section, n int64) error {
	asc, _ := sec.Ascending()
	if asc.Empty() {
		return nil
	}
	if asc.Lo < 0 || asc.Last() >= n {
		return fmt.Errorf("section %v outside array [0, %d)", sec, n)
	}
	return nil
}

// Volume returns the total number of elements moved from q to r.
func (p *Plan) Volume(q, r int64) int64 {
	var v int64
	for _, s := range p.Transfers[q][r] {
		v += s.Count()
	}
	return v
}

// TotalVolume returns the total number of elements moved, including
// processor-local copies.
func (p *Plan) TotalVolume() int64 {
	var v int64
	for q := int64(0); q < p.NSrc; q++ {
		for r := int64(0); r < p.NDst; r++ {
			v += p.Volume(q, r)
		}
	}
	return v
}

// Execute runs the planned assignment dst(dstSec) = src(srcSec) as one
// SPMD step on the machine (see execute). The arrays must have the
// layouts and lengths the plan was built for, and the machine's
// processor count must cover both layouts' processor counts.
func (p *Plan) Execute(m *machine.Machine, dst, src *hpf.Array) error {
	if err := p.check(dst, src); err != nil {
		return err
	}
	return execute(m, dst, []operand{{e: p.compiled(), src: src}})
}

// check returns an error unless dst and src have the layouts and
// lengths the plan was built for.
func (p *Plan) check(dst, src *hpf.Array) error {
	if dst.Layout() != p.dstLayout || dst.N() != p.dstN ||
		src.Layout() != p.srcLayout || src.N() != p.srcN {
		return fmt.Errorf("comm: plan for %v [%d] ← %v [%d] given arrays %v [%d] ← %v [%d]",
			p.dstLayout, p.dstN, p.srcLayout, p.srcN,
			dst.Layout(), dst.N(), src.Layout(), src.N())
	}
	return nil
}

// localMem is a distributed array as the executor sees it: each rank's
// local memory, indexed by the compiled local addresses.
type localMem interface {
	LocalMem(rank int64) []float64
}

// operand is one source of an SPMD comm step: its compiled schedule into
// the destination, the source array, and how delivered values land (a
// nil op stores them, any other op folds them into the destination).
type operand struct {
	e   *planExec
	src localMem
	op  BinOp

	// Set by execute.
	tag  string // message tag
	step uint32 // access-trace step of the unpack side
	add  bool   // op is Add, which the unpack loop inlines
}

// labels returns the operand's message tag and unpack step label:
// comm.copy and comm.unpack for a store, comm.combine for both of a fold.
func (o *operand) labels() (tag, step string) {
	if o.op == nil {
		return "comm.copy", "comm.unpack"
	}
	return "comm.combine", "comm.combine"
}

// execute runs dst ← ops as one SPMD step. Every rank first packs and
// sends each operand's outgoing pairs, then receives and unpacks the
// values addressed to it, operand by operand, storing or folding them
// into its local dst memory. A pair with count 0 sends no message and
// its receiver does not wait for one: both sides read the count from
// the same planExec. A rank-local pair sends no message either. Every
// rank reads all its operand values before it writes its own memory,
// and no rank writes another rank's memory, so dst may alias any
// operand.
func execute(m *machine.Machine, dst localMem, ops []operand) error {
	nprocs := int64(m.NProcs())
	for i := range ops {
		o := &ops[i]
		if nprocs < o.e.ndst || nprocs < o.e.nsrc {
			return fmt.Errorf("comm: machine has %d procs, plan needs %d dst / %d src",
				nprocs, o.e.ndst, o.e.nsrc)
		}
		o.tag, _ = o.labels()
		o.add = o.op != nil && reflect.ValueOf(o.op).Pointer() == addFn
	}
	// Access-trace steps are created once, on the host, before the SPMD
	// body: one pack step, then each operand's unpack step. Ranks record
	// concurrently into their own rings.
	ar := telemetry.ActiveAccessRecorder()
	var packStep uint32
	if ar != nil {
		packStep = ar.BeginStep("comm.pack")
		for i := range ops {
			_, label := ops[i].labels()
			ops[i].step = ar.BeginStep(label)
		}
	}
	m.Run(func(proc *machine.Proc) {
		tr := telemetry.ActiveTracer()
		var t0 int64
		if tr != nil {
			t0 = tr.Now()
		}
		me := int64(proc.Rank())
		// Pack and send. Buffers come from the machine's pool; ownership
		// transfers with the message and the receiver recycles them after
		// unpacking. The rank-local (me → me) pair skips the mailbox: its
		// buffer is held here, one per operand (an execute has at most
		// two), until the unpack phase. It is still packed in this phase,
		// before any write, which keeps dst safe to alias an operand.
		var held [2][]float64
		for i := range ops {
			o := &ops[i]
			if me >= o.e.nsrc {
				continue
			}
			mem := o.src.LocalMem(me)
			for r := int64(0); r < o.e.ndst; r++ {
				n := o.e.count(me, r)
				if n == 0 {
					continue
				}
				buf := machine.GetBuf(n)
				if ar != nil {
					buf = o.e.packTraced(buf, mem, me, r, ar, packStep)
				} else {
					buf = o.e.packInto(buf, mem, me, r)
				}
				if r == me {
					held[i] = buf
				} else {
					proc.Send(int(r), o.tag, buf)
				}
			}
		}
		// Receive and unpack.
		for i := range ops {
			o := &ops[i]
			if me >= o.e.ndst {
				continue
			}
			mem := dst.LocalMem(me)
			for q := int64(0); q < o.e.nsrc; q++ {
				want := o.e.count(q, me)
				if want == 0 {
					continue
				}
				data := held[i]
				if q != me {
					data = proc.Recv(int(q), o.tag).Data
				}
				if len(data) != want {
					panic(fmt.Sprintf("comm: received %d of %d values from proc %d",
						len(data), want, q))
				}
				switch {
				case ar != nil:
					o.e.unpackTraced(mem, data, q, me, o.op, ar, o.step)
				case o.op == nil:
					o.e.unpackFrom(mem, data, q, me)
				case o.add:
					o.e.addFrom(mem, data, q, me)
				default:
					o.e.combineFrom(mem, data, q, me, o.op)
				}
				machine.PutBuf(data)
			}
		}
		if tr != nil {
			tr.EndSpan(int32(proc.Rank()), "comm.execute", t0)
		}
	})
	return nil
}

// Copy plans and executes dst(dstSec) = src(srcSec) in one call,
// consulting the plan cache: a repeated (layouts, sections) pattern —
// the inner loop of an iterative solver — reuses the memoized schedule
// and its compiled pack/unpack addresses instead of replanning.
func Copy(m *machine.Machine, dst *hpf.Array, dstSec section.Section,
	src *hpf.Array, srcSec section.Section) error {
	plan, err := CachedPlan(dst.Layout(), dst.N(), dstSec, src.Layout(), src.N(), srcSec)
	if err != nil {
		return err
	}
	return plan.Execute(m, dst, src)
}
