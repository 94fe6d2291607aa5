package codegen

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/telemetry"
)

// Walk must enumerate exactly the reference address sequence — for
// every kernel candidate of every fixture family, in access order.
func TestKernelWalkMatchesAddresses(t *testing.T) {
	for _, tc := range kernelProblems() {
		f := newFixture(t, tc.pr, tc.u)
		sp := kernelSpec(f)
		for _, kn := range Candidates(sp) {
			kn := kn
			var got []int64
			n := kn.Walk(func(a int64) { got = append(got, a) })
			if n != int64(len(f.wantAddrs)) {
				t.Errorf("%+v u=%d %s: Walk count = %d, want %d",
					tc.pr, tc.u, kn.Kind(), n, len(f.wantAddrs))
			}
			if len(f.wantAddrs) == 0 {
				if len(got) != 0 {
					t.Errorf("%+v u=%d %s: Walk visited %d addrs on empty spec", tc.pr, tc.u, kn.Kind(), len(got))
				}
				continue
			}
			if !reflect.DeepEqual(got, f.wantAddrs) {
				t.Errorf("%+v u=%d %s: Walk sequence differs from Problem.Addresses",
					tc.pr, tc.u, kn.Kind())
			}
		}
	}
}

// recorded drains the recorder into (addr, write) pairs for rank 0.
func recorded(t *testing.T, ar *telemetry.AccessRecorder) []telemetry.AccessRec {
	t.Helper()
	doc := ar.Doc()
	for _, seq := range doc.Seqs {
		if seq.Rank == 0 {
			return seq.Accesses
		}
	}
	return nil
}

// The traced ops must produce the same memory effects and return values
// as their untraced twins, and record the right (addr, rw) sequence.
func TestKernelTracedOpsMatchUntraced(t *testing.T) {
	for _, tc := range kernelProblems() {
		f := newFixture(t, tc.pr, tc.u)
		sp := kernelSpec(f)
		n := int64(len(f.wantAddrs))
		for _, kn := range Candidates(sp) {
			kn := kn
			label := kn.Kind().String()
			cap := int(2*n) + 64

			// Fill: writes only.
			ar := telemetry.NewAccessRecorder(1, cap)
			f.verify(t, label+"/fill-traced", kn.FillTraced(f.mem, 1.0, ar, 0, 7))
			recs := recorded(t, ar)
			if int64(len(recs)) != n {
				t.Fatalf("%s: fill recorded %d accesses, want %d", label, len(recs), n)
			}
			for i, r := range recs {
				if r.Addr != f.wantAddrs[i] || !r.Write || r.Step != 7 {
					t.Fatalf("%s: fill record %d = %+v, want write of %d at step 7", label, i, r, f.wantAddrs[i])
				}
			}

			// Map: read then write per element.
			ar = telemetry.NewAccessRecorder(1, cap)
			f.verify(t, label+"/map-traced", kn.MapTraced(f.mem, func(x float64) float64 { return x + 1 }, ar, 0, 1))
			recs = recorded(t, ar)
			if int64(len(recs)) != 2*n {
				t.Fatalf("%s: map recorded %d accesses, want %d", label, len(recs), 2*n)
			}
			for i := int64(0); i < n; i++ {
				rd, wr := recs[2*i], recs[2*i+1]
				if rd.Addr != f.wantAddrs[i] || rd.Write || wr.Addr != f.wantAddrs[i] || !wr.Write {
					t.Fatalf("%s: map records %d = %+v %+v", label, i, rd, wr)
				}
			}

			// Sum: reads only, same total as untraced.
			var want float64
			for i, a := range f.wantAddrs {
				f.mem[a] = float64(i + 1)
				want += float64(i + 1)
			}
			ar = telemetry.NewAccessRecorder(1, cap)
			got, cnt := kn.SumTraced(f.mem, ar, 0, 2)
			if cnt != n || math.Abs(got-want) > 1e-9 {
				t.Fatalf("%s: SumTraced = (%v, %d), want (%v, %d)", label, got, cnt, want, n)
			}
			recs = recorded(t, ar)
			if int64(len(recs)) != n {
				t.Fatalf("%s: sum recorded %d accesses, want %d", label, len(recs), n)
			}
			for i, r := range recs {
				if r.Addr != f.wantAddrs[i] || r.Write {
					t.Fatalf("%s: sum record %d = %+v", label, i, r)
				}
			}

			clear(f.mem)
		}
	}
}
