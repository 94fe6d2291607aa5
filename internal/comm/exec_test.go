package comm

import (
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/hpf"
	"repro/internal/machine"
	"repro/internal/section"
)

// TestExecPairModesAgree cross-checks the compiled pack/unpack paths
// against the uncompiled definition (walk the transfer sections, move
// element by element), over randomized cross-distribution plans.
func TestExecPairModesAgree(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 80; trial++ {
		pd, ps := r.Int63n(4)+1, r.Int63n(4)+1
		kd, ks := r.Int63n(6)+1, r.Int63n(6)+1
		dstL, srcL := dist.MustNew(pd, kd), dist.MustNew(ps, ks)
		count := r.Int63n(30) + 1
		ds, ss := r.Int63n(6)+1, r.Int63n(6)+1
		dstSec := section.Section{Lo: r.Int63n(10), Stride: ds}
		dstSec.Hi = dstSec.Lo + (count-1)*ds
		srcSec := section.Section{Lo: r.Int63n(10), Stride: ss}
		srcSec.Hi = srcSec.Lo + (count-1)*ss
		nd, ns := dstSec.Last()+1+r.Int63n(10), srcSec.Last()+1+r.Int63n(10)

		plan, err := NewPlan(dstL, nd, dstSec, srcL, ns, srcSec)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		e := plan.compiled()

		src := hpf.MustNewArray(srcL, ns)
		for i := int64(0); i < ns; i++ {
			src.Set(i, float64(i+1))
		}
		dst := hpf.MustNewArray(dstL, nd)

		for q := int64(0); q < plan.NSrc; q++ {
			for r2 := int64(0); r2 < plan.NDst; r2++ {
				buf := e.packInto(nil, src.LocalMem(q), q, r2)
				if len(buf) != e.count(q, r2) {
					t.Fatalf("trial %d (%d→%d): packed %d, count says %d",
						trial, q, r2, len(buf), e.count(q, r2))
				}
				e.unpackFrom(dst.LocalMem(r2), buf, q, r2)
			}
		}
		for j := int64(0); j < count; j++ {
			want := float64(srcSec.Element(j) + 1)
			if got := dst.Get(dstSec.Element(j)); got != want {
				t.Fatalf("trial %d: dst(%d) = %v, want %v",
					trial, dstSec.Element(j), got, want)
			}
		}
	}
}

// TestWarmPackUnpackZeroAllocs guards the acceptance criterion that the
// compiled pack/unpack paths allocate nothing once the exec is built and
// the value buffer is pre-sized.
func TestWarmPackUnpackZeroAllocs(t *testing.T) {
	layout := dist.MustNew(4, 8)
	src := hpf.MustNewArray(layout, 640)
	dst := hpf.MustNewArray(layout, 640)
	dstSec := section.MustNew(4, 600, 9)
	srcSec := section.MustNew(0, int64(8*(dstSec.Count()-1)), 8)
	plan, err := NewPlan(layout, 640, dstSec, layout, 640, srcSec)
	if err != nil {
		t.Fatal(err)
	}
	e := plan.compiled()

	for q := int64(0); q < plan.NSrc; q++ {
		for r := int64(0); r < plan.NDst; r++ {
			q, r := q, r
			buf := make([]float64, 0, e.count(q, r))
			srcMem, dstMem := src.LocalMem(q), dst.LocalMem(r)
			if n := testing.AllocsPerRun(20, func() {
				buf = e.packInto(buf[:0], srcMem, q, r)
				e.unpackFrom(dstMem, buf, q, r)
			}); n != 0 {
				t.Errorf("pair (%d→%d): warm pack/unpack allocates %v/op, want 0", q, r, n)
			}
		}
	}
}

// TestExecuteStridedEndToEnd runs a full machine execution over a
// unit-stride same-layout copy (the memmove fast path) and a stride-9
// one, checking results either way.
func TestExecuteStridedEndToEnd(t *testing.T) {
	layout := dist.MustNew(4, 8)
	m := machine.MustNew(4)
	for _, stride := range []int64{1, 9} {
		src := hpf.MustNewArray(layout, 640)
		dst := hpf.MustNewArray(layout, 640)
		for i := int64(0); i < 640; i++ {
			src.Set(i, float64(i))
		}
		count := int64(60)
		sec := section.Section{Lo: 3, Hi: 3 + (count-1)*stride, Stride: stride}
		plan, err := NewPlan(layout, 640, sec, layout, 640, sec)
		if err != nil {
			t.Fatal(err)
		}
		if err := plan.Execute(m, dst, src); err != nil {
			t.Fatal(err)
		}
		for j := int64(0); j < count; j++ {
			i := sec.Element(j)
			if got := dst.Get(i); got != float64(i) {
				t.Fatalf("stride %d: dst(%d) = %v, want %v", stride, i, got, float64(i))
			}
		}
	}
}

// move is one position of an assignment as the brute-force oracle sees
// it: source rank and local address, destination rank and local address.
type move struct{ q, pa, r, ua int64 }

// randSide returns a layout, an array length and a section of count
// elements fitting in it: p ≤ maxP, stride in ±[1, 6], a block layout
// (k = ⌈n/p⌉) when block is set, and an empty section when count is 0.
func randSide(r *rand.Rand, count, maxP int64, block bool) (dist.Layout, int64, section.Section) {
	stride := r.Int63n(6) + 1
	lo := r.Int63n(12)
	sec := section.Section{Lo: lo, Hi: lo + (count-1)*stride, Stride: stride}
	if r.Intn(3) == 0 {
		sec = section.Section{Lo: sec.Hi, Hi: lo, Stride: -stride}
	}
	n := max(sec.Lo, sec.Hi) + 1 + r.Int63n(10)
	p := r.Int63n(maxP) + 1
	if block {
		l, err := dist.Block(p, n)
		if err != nil {
			panic(err)
		}
		return l, n, sec
	}
	return dist.MustNew(p, r.Int63n(8)+1), n, sec
}

// checkRuns expands every compiled pair's runs and requires them to
// carry exactly the oracle's moves: each destination (rank, address)
// once, sent by the source owner from the source local address, with
// pack and unpack addresses paired position by position, and each pair's
// count equal to the values its runs move.
func checkRuns(t *testing.T, e *planExec, moves []move) {
	t.Helper()
	want := make(map[[2]int64][2]int64, len(moves))
	for _, mv := range moves {
		want[[2]int64{mv.r, mv.ua}] = [2]int64{mv.q, mv.pa}
	}
	if len(want) != len(moves) {
		t.Fatalf("oracle: %d moves hit %d destinations", len(moves), len(want))
	}
	for q := int64(0); q < e.nsrc; q++ {
		for r := int64(0); r < e.ndst; r++ {
			var n int64
			for _, rn := range e.pairs[q][r].runs {
				pa, ua := rn.packBase, rn.unpackBase
				for i := int64(0); i < rn.n; i++ {
					key := [2]int64{r, ua}
					w, ok := want[key]
					if !ok {
						t.Fatalf("pair %d→%d run %+v: destination %d on rank %d is not a position or comes twice",
							q, r, rn, ua, r)
					}
					if w != [2]int64{q, pa} {
						t.Fatalf("pair %d→%d run %+v: destination %d on rank %d packs rank %d address %d, want rank %d address %d",
							q, r, rn, ua, r, q, pa, w[0], w[1])
					}
					delete(want, key)
					pa += rn.packStep
					ua += rn.unpackStep
				}
				n += rn.n
			}
			if got := e.count(q, r); int64(got) != n {
				t.Fatalf("pair %d→%d: count %d, runs move %d", q, r, got, n)
			}
		}
	}
	if len(want) != 0 {
		t.Fatalf("%d positions are in no run", len(want))
	}
}

// FuzzCompiledRuns is the oracle for the compiled schedule: every run of
// a random 1-D plan (cyclic or block layouts, either stride sign, empty
// sections) or 2-D copy or transpose plan must expand to exactly the
// moves a brute-force walk over the positions finds.
func FuzzCompiledRuns(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		r := rand.New(rand.NewSource(seed))
		block := shape&4 != 0
		if shape&2 == 0 {
			count := r.Int63n(60)
			dstL, dn, dstSec := randSide(r, count, 5, block)
			srcL, sn, srcSec := randSide(r, count, 5, block)
			plan, err := NewPlan(dstL, dn, dstSec, srcL, sn, srcSec)
			if err != nil {
				t.Fatal(err)
			}
			moves := make([]move, count)
			for i := range moves {
				gs, gd := srcSec.Element(int64(i)), dstSec.Element(int64(i))
				moves[i] = move{srcL.Owner(gs), srcL.Local(gs), dstL.Owner(gd), dstL.Local(gd)}
			}
			checkRuns(t, plan.compiled(), moves)
			return
		}
		perm := [2]int{0, 1}
		if shape&1 != 0 {
			perm = [2]int{1, 0}
		}
		var dstL, srcL [2]dist.Layout
		var dstExt, srcExt [2]int64
		dstRect, srcRect := make(section.Rect, 2), make(section.Rect, 2)
		var counts [2]int64
		for a := 0; a < 2; a++ {
			s := perm[a]
			counts[a] = r.Int63n(12)
			dstL[a], dstExt[a], dstRect[a] = randSide(r, counts[a], 3, block)
			srcL[s], srcExt[s], srcRect[s] = randSide(r, counts[a], 3, block)
		}
		dg, sg := dist.MustNewGrid(dstL[:]...), dist.MustNewGrid(srcL[:]...)
		plan, err := NewPlan2D(dg, dstExt[:], dstRect, sg, srcExt[:], srcRect, perm)
		if err != nil {
			t.Fatal(err)
		}
		// rankAddr is the owner rank of index and its row-major local
		// address there.
		rankAddr := func(g *dist.Grid, ext [2]int64, index []int64) (int64, int64) {
			owner := g.Owner(index)
			li := g.Local(index)
			return g.FlatRank(owner), li[0]*g.LocalShape(owner, ext[:])[1] + li[1]
		}
		var moves []move
		for t0 := int64(0); t0 < counts[0]; t0++ {
			for t1 := int64(0); t1 < counts[1]; t1++ {
				var si [2]int64
				si[perm[0]], si[perm[1]] = srcRect[perm[0]].Element(t0), srcRect[perm[1]].Element(t1)
				q, pa := rankAddr(sg, srcExt, si[:])
				rr, ua := rankAddr(dg, dstExt, []int64{dstRect[0].Element(t0), dstRect[1].Element(t1)})
				moves = append(moves, move{q, pa, rr, ua})
			}
		}
		checkRuns(t, plan.exec, moves)
	})
}
