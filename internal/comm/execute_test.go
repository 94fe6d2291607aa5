package comm

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/hpf"
	"repro/internal/machine"
	"repro/internal/section"
	"repro/internal/telemetry"
)

// Differential tests of the SPMD executor: Copy, Accumulate and Combine
// over random cross-layout plans against a sequential reference that
// reads every operand before it writes (Fortran 90 array assignment).

const execN = 300 // elements per test array

// randSection returns a count-element section of an execN array with a
// random stride in ±[1, 7].
func randSection(r *rand.Rand, count int64) section.Section {
	s := r.Int63n(7) + 1
	span := (count - 1) * s
	lo := r.Int63n(execN - span)
	if r.Intn(2) == 0 {
		return section.Section{Lo: lo + span, Hi: lo, Stride: -s}
	}
	return section.Section{Lo: lo, Hi: lo + span, Stride: s}
}

// randLayout returns a layout whose p and k both differ from other's.
func randLayout(r *rand.Rand, other dist.Layout) dist.Layout {
	p, k := r.Int63n(4)+1, r.Int63n(6)+1
	if p == other.P() {
		p = p%4 + 1
	}
	if k == other.K() {
		k = k%6 + 1
	}
	return dist.MustNew(p, k)
}

// filled returns an execN array whose element i holds base + i; small
// integers keep every reference computation exact.
func filled(l dist.Layout, base float64) *hpf.Array {
	a := hpf.MustNewArray(l, execN)
	for i := int64(0); i < execN; i++ {
		a.Set(i, base+float64(i))
	}
	return a
}

// execCase is one statement dst(dstSec) = a(aSec) [op b(bSec)], run as
// Copy (b nil, accumulate false), Accumulate (b nil, accumulate true)
// or Combine (b set).
type execCase struct {
	dst, a, b          *hpf.Array
	dstSec, aSec, bSec section.Section
	op                 BinOp
	accumulate         bool
}

func (c execCase) String() string {
	switch {
	case c.b != nil:
		return fmt.Sprintf("Combine %v = %v op %v", c.dstSec, c.aSec, c.bSec)
	case c.accumulate:
		return fmt.Sprintf("Accumulate %v op= %v", c.dstSec, c.aSec)
	}
	return fmt.Sprintf("Copy %v = %v", c.dstSec, c.aSec)
}

// reference computes the statement sequentially on gathered copies.
func (c execCase) reference() []float64 {
	out := c.dst.Gather()
	av := c.a.Gather()
	var bv []float64
	if c.b != nil {
		bv = c.b.Gather()
	}
	for j := int64(0); j < c.dstSec.Count(); j++ {
		d, v := c.dstSec.Element(j), av[c.aSec.Element(j)]
		switch {
		case c.b != nil:
			out[d] = c.op(v, bv[c.bSec.Element(j)])
		case c.accumulate:
			out[d] = c.op(out[d], v)
		default:
			out[d] = v
		}
	}
	return out
}

func (c execCase) run(m *machine.Machine) error {
	switch {
	case c.b != nil:
		return Combine(m, c.dst, c.dstSec, c.a, c.aSec, c.b, c.bSec, c.op)
	case c.accumulate:
		return Accumulate(m, c.dst, c.dstSec, c.a, c.aSec, c.op)
	}
	return Copy(m, c.dst, c.dstSec, c.a, c.aSec)
}

// refOperand is one source of a statement as the executor sees it; a
// nil op is a store.
type refOperand struct {
	src *hpf.Array
	sec section.Section
	op  BinOp
}

// operands lists the statement's sources in executor order.
func (c execCase) operands() []refOperand {
	switch {
	case c.b != nil:
		return []refOperand{{c.a, c.aSec, nil}, {c.b, c.bSec, c.op}}
	case c.accumulate:
		return []refOperand{{c.a, c.aSec, c.op}}
	}
	return []refOperand{{c.a, c.aSec, nil}}
}

// wantTraffic counts the messages and values the statement must send,
// by brute force over the owners of each operand's elements: one
// message per non-empty off-diagonal (q, r) pair, q ≠ r, and one value
// per element whose source and destination owners differ. A rank-local
// pair moves no message.
func (c execCase) wantTraffic() (messages, values int64) {
	dl := c.dst.Layout()
	for _, o := range c.operands() {
		sl := o.src.Layout()
		pairs := map[[2]int64]bool{}
		for j := int64(0); j < c.dstSec.Count(); j++ {
			q, r := sl.Owner(o.sec.Element(j)), dl.Owner(c.dstSec.Element(j))
			if q != r {
				pairs[[2]int64{q, r}] = true
				values++
			}
		}
		messages += int64(len(pairs))
	}
	return messages, values
}

// accessKey groups recorded accesses by rank, step label and direction.
type accessKey struct {
	rank  int32
	label string
	write bool
}

// wantAccesses is the layout oracle for the recorded access trace: each
// operand's pack reads its source elements on their owners; a store
// writes each destination element on its owner once, and a fold reads
// and writes it once.
func (c execCase) wantAccesses() map[accessKey]map[int64]int {
	want := map[accessKey]map[int64]int{}
	add := func(k accessKey, addr int64) {
		if want[k] == nil {
			want[k] = map[int64]int{}
		}
		want[k][addr]++
	}
	dl := c.dst.Layout()
	for _, o := range c.operands() {
		sl := o.src.Layout()
		for j := int64(0); j < c.dstSec.Count(); j++ {
			si, di := o.sec.Element(j), c.dstSec.Element(j)
			add(accessKey{int32(sl.Owner(si)), "comm.pack", false}, sl.Local(si))
			r, addr := int32(dl.Owner(di)), dl.Local(di)
			if o.op == nil {
				add(accessKey{r, "comm.unpack", true}, addr)
				continue
			}
			add(accessKey{r, "comm.combine", false}, addr)
			add(accessKey{r, "comm.combine", true}, addr)
		}
	}
	return want
}

// randCase draws one statement. dst, a and b pairwise differ in p and in
// k where the draw allows; Combine's op is not commutative, so swapping
// the operands' roles would show.
func randCase(r *rand.Rand, kind int) execCase {
	dl := dist.MustNew(r.Int63n(4)+1, r.Int63n(6)+1)
	count := r.Int63n(40) + 1
	c := execCase{
		dst:    filled(dl, 1000),
		dstSec: randSection(r, count),
		aSec:   randSection(r, count),
		op:     func(old, in float64) float64 { return 2*old - in },
	}
	c.a = filled(randLayout(r, dl), 0)
	switch kind {
	case 1:
		c.accumulate = true
	case 2:
		c.b = filled(randLayout(r, c.a.Layout()), 500)
		c.bSec = randSection(r, count)
	}
	return c
}

// clone deep-copies the statement's arrays so a second run starts from
// the same state.
func (c execCase) clone() execCase {
	cp := func(a *hpf.Array) *hpf.Array {
		if a == nil {
			return nil
		}
		out := hpf.MustNewArray(a.Layout(), a.N())
		for i, v := range a.Gather() {
			out.Set(int64(i), v)
		}
		return out
	}
	c.dst, c.a, c.b = cp(c.dst), cp(c.a), cp(c.b)
	return c
}

func maxP(c execCase) int64 {
	p := max(c.dst.Layout().P(), c.a.Layout().P())
	if c.b != nil {
		p = max(p, c.b.Layout().P())
	}
	return p
}

func TestExecuteMatchesSequentialReference(t *testing.T) {
	r := rand.New(rand.NewSource(91))
	for trial := 0; trial < 120; trial++ {
		c := randCase(r, trial%3)
		nprocs := int(maxP(c) + 1 + r.Int63n(2)) // idle ranks take part too
		traced := c.clone()
		want := c.reference()

		m := machine.MustNew(nprocs)
		if err := c.run(m); err != nil {
			t.Fatalf("trial %d %v: %v", trial, c, err)
		}
		got := c.dst.Gather()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d %v: dst(%d) = %v, want %v", trial, c, i, got[i], want[i])
			}
		}
		wantMsgs, wantVals := c.wantTraffic()
		st := m.TotalStats()
		if st.MessagesSent != wantMsgs || st.MessagesReceived != wantMsgs {
			t.Fatalf("trial %d %v: sent %d / received %d messages, want %d (non-empty off-diagonal pairs)",
				trial, c, st.MessagesSent, st.MessagesReceived, wantMsgs)
		}
		if st.ValuesSent != wantVals || st.ValuesReceived != wantVals {
			t.Fatalf("trial %d %v: sent %d / received %d values, want %d",
				trial, c, st.ValuesSent, st.ValuesReceived, wantVals)
		}

		// The same statement under the access recorder computes the same
		// array and records exactly the oracle's addresses.
		ar := telemetry.StartAccessRecording(nprocs, 1<<14)
		err := traced.run(machine.MustNew(nprocs))
		telemetry.StopAccessRecording()
		if err != nil {
			t.Fatalf("trial %d %v (recorded): %v", trial, c, err)
		}
		tgot := traced.dst.Gather()
		for i := range got {
			if tgot[i] != got[i] {
				t.Fatalf("trial %d %v: recorded run dst(%d) = %v, unrecorded %v", trial, c, i, tgot[i], got[i])
			}
		}
		doc := ar.Doc()
		if doc.Dropped != 0 {
			t.Fatalf("trial %d: recorder dropped %d accesses", trial, doc.Dropped)
		}
		labels := map[uint32]string{}
		for _, s := range doc.Steps {
			labels[s.Step] = s.Label
		}
		gotAcc := map[accessKey]map[int64]int{}
		for _, seq := range doc.Seqs {
			for _, rec := range seq.Accesses {
				k := accessKey{seq.Rank, labels[rec.Step], rec.Write}
				if gotAcc[k] == nil {
					gotAcc[k] = map[int64]int{}
				}
				gotAcc[k][rec.Addr]++
			}
		}
		wantAcc := c.wantAccesses()
		if len(gotAcc) != len(wantAcc) {
			t.Fatalf("trial %d %v: accesses under %d (rank, step, direction) keys, want %d",
				trial, c, len(gotAcc), len(wantAcc))
		}
		for k, w := range wantAcc {
			checkAddrSet(t, fmt.Sprintf("trial %d %s write=%v", trial, k.label, k.write), k.rank, gotAcc[k], w)
		}
	}
}

// TestCombineInPlace runs the Jacobi update x(c) = x(c-s) + x(c+s) with
// x as destination and both operands. Each destination element must see
// the operands' old values, as sequential Fortran 90 semantics require.
func TestCombineInPlace(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		l := dist.MustNew(r.Int63n(4)+1, r.Int63n(6)+1)
		x := filled(l, 0)
		s := r.Int63n(6) + 1
		step := r.Int63n(3) + 1
		interior := section.Section{Lo: s, Hi: execN - 1 - s, Stride: step}
		left := section.Section{Lo: 0, Hi: interior.Last() - s, Stride: step}
		right := section.Section{Lo: 2 * s, Hi: interior.Last() + s, Stride: step}
		want := x.Gather()
		old := x.Gather()
		for c := interior.Lo; c <= interior.Hi; c += step {
			want[c] = old[c-s] + old[c+s]
		}
		m := machine.MustNew(int(l.P()))
		if err := Combine(m, x, interior, x, left, x, right, Add); err != nil {
			t.Fatal(err)
		}
		got := x.Gather()
		bad := 0
		for i := range want {
			if got[i] != want[i] {
				bad++
			}
		}
		if bad > 0 {
			t.Fatalf("trial %d (p=%d k=%d s=%d step=%d): %d of %d elements differ from the sequential reference",
				trial, l.P(), l.K(), s, step, bad, len(want))
		}
	}
}

// TestCopy2DSendsOnlyNonEmptyPairs: a 2-D copy sends one message per
// (source rank, destination rank) pair of distinct ranks that moves at
// least one element, and one value per element that changes rank,
// counted here by brute force over the owners of every position.
func TestCopy2DSendsOnlyNonEmptyPairs(t *testing.T) {
	r := rand.New(rand.NewSource(93))
	for trial := 0; trial < 40; trial++ {
		sg, dg := randomGrid(r), randomGrid(r)
		const n0, n1 = 24, 20
		src := hpf.MustNewArray2D(sg, n0, n1)
		dst := hpf.MustNewArray2D(dg, n0, n1)
		c0, c1 := r.Int63n(n0)+1, r.Int63n(n1)+1
		srcRect := randomRectIn(r, c0, c1, n0, n1)
		dstRect := randomRectIn(r, c0, c1, n0, n1)

		pairs := map[[2]int64]bool{}
		var moved int64
		for t0 := int64(0); t0 < c0; t0++ {
			for t1 := int64(0); t1 < c1; t1++ {
				q := sg.FlatRank(sg.Owner([]int64{srcRect[0].Element(t0), srcRect[1].Element(t1)}))
				d := dg.FlatRank(dg.Owner([]int64{dstRect[0].Element(t0), dstRect[1].Element(t1)}))
				if q != d {
					pairs[[2]int64{q, d}] = true
					moved++
				}
			}
		}
		m := machine.MustNew(int(max(sg.Procs(), dg.Procs())))
		if err := Copy2D(m, dst, dstRect, src, srcRect); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		st := m.TotalStats()
		if st.MessagesSent != int64(len(pairs)) || st.MessagesReceived != int64(len(pairs)) {
			t.Fatalf("trial %d (%v = %v): sent %d / received %d messages, want %d non-empty off-diagonal pairs",
				trial, dstRect, srcRect, st.MessagesSent, st.MessagesReceived, len(pairs))
		}
		if st.ValuesSent != moved || st.ValuesReceived != moved {
			t.Fatalf("trial %d: sent %d / received %d values, want %d off-rank elements",
				trial, st.ValuesSent, st.ValuesReceived, moved)
		}
	}
}
