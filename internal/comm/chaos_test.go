package comm

import (
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/hpf"
	"repro/internal/machine"
	"repro/internal/section"
)

// Chaos tests: communication plans execute under seeded fault plans
// applied inside the machine's Send/Recv, so the pack/exchange/unpack
// protocol is exercised unmodified. Delay, duplication and reorder must
// not corrupt a transfer (each (sender, tag) pair carries at most one
// message per Execute); dropped messages must surface as the machine's
// structured deadlock failure, never a hang. CI runs these with -race
// and a hard timeout (chaos-smoke job).

// chaosFixture builds differently-distributed src/dst arrays and the
// plan for dst(0:2(cnt-1):2) = src(4:n-1:9) from cyclic(8) to cyclic(5)
// on four ranks or, with whole set, for the whole-array copy from
// cyclic(8) on four ranks to cyclic(3) on six (a redistribution).
func chaosFixture(t *testing.T, whole bool) (*Plan, *hpf.Array, *hpf.Array, section.Section, section.Section) {
	t.Helper()
	const n = 320
	srcL := dist.MustNew(4, 8)
	dstL := dist.MustNew(4, 5)
	srcSec := section.Section{Lo: 4, Hi: n - 1, Stride: 9}
	dstSec := section.Section{Lo: 0, Hi: 2 * (srcSec.Count() - 1), Stride: 2}
	if whole {
		dstL = dist.MustNew(6, 3)
		srcSec = section.Section{Lo: 0, Hi: n - 1, Stride: 1}
		dstSec = srcSec
	}
	src := hpf.MustNewArray(srcL, n)
	for i := int64(0); i < n; i++ {
		src.Set(i, float64(i))
	}
	dst := hpf.MustNewArray(dstL, n)
	plan, err := NewPlan(dstL, n, dstSec, srcL, n, srcSec)
	if err != nil {
		t.Fatal(err)
	}
	return plan, dst, src, dstSec, srcSec
}

func checkCopied(t *testing.T, dst, src *hpf.Array, dstSec, srcSec section.Section) {
	t.Helper()
	for i := int64(0); i < srcSec.Count(); i++ {
		want := src.Get(srcSec.Element(i))
		if got := dst.Get(dstSec.Element(i)); got != want {
			t.Fatalf("dst element %d = %v, want %v", i, got, want)
		}
	}
}

func TestExecuteSurvivesDelayDupReorder(t *testing.T) {
	for name, whole := range map[string]bool{"section": false, "redistribute": true} {
		t.Run(name, func(t *testing.T) {
			for _, seed := range []int64{5, 19} {
				plan, dst, src, dstSec, srcSec := chaosFixture(t, whole)
				m := machine.MustNew(int(max(plan.NSrc, plan.NDst)))
				m.SetFaults(&machine.FaultPlan{
					Seed: seed, Delay: 0.25, Dup: 0.25, Reorder: 0.25, CrashRank: -1,
				})
				if err := plan.Execute(m, dst, src); err != nil {
					t.Fatal(err)
				}
				checkCopied(t, dst, src, dstSec, srcSec)
				if len(m.FaultEvents()) == 0 {
					t.Errorf("seed %d: no faults injected; plan not exercised", seed)
				}
			}
		})
	}
}

func TestExecuteWithSurvivesFaults(t *testing.T) {
	plan, dst, src, dstSec, srcSec := chaosFixture(t, false)
	base := 0.5
	for i := int64(0); i < dst.N(); i++ {
		dst.Set(i, base)
	}
	m := machine.MustNew(4)
	m.SetFaults(&machine.FaultPlan{
		Seed: 23, Delay: 0.3, Reorder: 0.3, CrashRank: -1,
	})
	if err := plan.ExecuteWith(m, dst, src, Add); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < srcSec.Count(); i++ {
		want := base + src.Get(srcSec.Element(i))
		if got := dst.Get(dstSec.Element(i)); got != want {
			t.Fatalf("dst element %d = %v, want %v", i, got, want)
		}
	}
}

// TestExecuteDropBecomesStructuredFailure: losing plan messages parks
// the unpack side forever; the machine must abort with a deadlock
// diagnostic naming the comm tag instead of hanging the test suite.
func TestExecuteDropBecomesStructuredFailure(t *testing.T) {
	plan, dst, src, _, _ := chaosFixture(t, false)
	m := machine.MustNew(4)
	m.SetFaults(&machine.FaultPlan{Seed: 3, Drop: 1, CrashRank: -1})
	start := time.Now()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected deadlock abort when every message is dropped")
		}
		msg := r.(string)
		if !strings.Contains(msg, "deadlock") || !strings.Contains(msg, "comm.copy") {
			t.Errorf("diagnostic %q should name the deadlock and the comm tag", msg)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Errorf("abort took %v", elapsed)
		}
	}()
	_ = plan.Execute(m, dst, src)
	t.Fatal("Execute with all messages dropped should not complete")
}

// combineChaosCases are the statements the Combine chaos tests run: a
// three-layout Combine whose two operands travel under different tags
// (comm.copy and comm.combine) in one step, and jacobi's and cg's
// shifted-section stencil steps on one array, x(1:n-2) = x(0:n-3) +
// x(2:n-1) and x(1:n-1) += x(0:n-2), which read every operand value
// before they write the destination.
func combineChaosCases() map[string]execCase {
	x := filled(dist.MustNew(4, 5), 0)
	y := filled(dist.MustNew(4, 5), 0)
	return map[string]execCase{
		"three-layout": {
			dst:    filled(dist.MustNew(4, 5), 1000),
			a:      filled(dist.MustNew(4, 8), 0),
			b:      filled(dist.MustNew(3, 2), 500),
			dstSec: section.Section{Lo: 0, Hi: 68, Stride: 2},
			aSec:   section.Section{Lo: 4, Hi: 276, Stride: 8},
			bSec:   section.Section{Lo: 299, Hi: 197, Stride: -3},
			op:     func(old, in float64) float64 { return 2*old - in },
		},
		"shifted-combine": {
			dst: x, a: x, b: x,
			dstSec: section.Section{Lo: 1, Hi: execN - 2, Stride: 1},
			aSec:   section.Section{Lo: 0, Hi: execN - 3, Stride: 1},
			bSec:   section.Section{Lo: 2, Hi: execN - 1, Stride: 1},
			op:     Add,
		},
		"shifted-accumulate": {
			dst: y, a: y, accumulate: true,
			dstSec: section.Section{Lo: 1, Hi: execN - 1, Stride: 1},
			aSec:   section.Section{Lo: 0, Hi: execN - 2, Stride: 1},
			op:     Add,
		},
	}
}

func TestCombineSurvivesDelayReorder(t *testing.T) {
	for name, c := range combineChaosCases() {
		t.Run(name, func(t *testing.T) {
			for _, seed := range []int64{5, 19} {
				want := c.reference()
				m := machine.MustNew(4)
				m.SetFaults(&machine.FaultPlan{
					Seed: seed, Delay: 0.25, Dup: 0.25, Reorder: 0.25, CrashRank: -1,
				})
				if err := c.run(m); err != nil {
					t.Fatal(err)
				}
				got := c.dst.Gather()
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d: dst(%d) = %v, want %v", seed, i, got[i], want[i])
					}
				}
				if len(m.FaultEvents()) == 0 {
					t.Errorf("seed %d: no faults injected; step not exercised", seed)
				}
			}
		})
	}
}

// TestCombineDropBecomesStructuredFailure: with every operand message
// lost, the machine must abort the step with a deadlock diagnostic
// naming a comm tag.
func TestCombineDropBecomesStructuredFailure(t *testing.T) {
	for name, c := range combineChaosCases() {
		t.Run(name, func(t *testing.T) {
			m := machine.MustNew(4)
			m.SetFaults(&machine.FaultPlan{Seed: 3, Drop: 1, CrashRank: -1})
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("expected deadlock abort when every message is dropped")
				}
				msg := r.(string)
				if !strings.Contains(msg, "deadlock") ||
					!(strings.Contains(msg, "comm.copy") || strings.Contains(msg, "comm.combine")) {
					t.Errorf("diagnostic %q should name the deadlock and a comm tag", msg)
				}
			}()
			_ = c.run(m)
			t.Fatal("a step with all messages dropped should not complete")
		})
	}
}

// transposeFixture builds differently-distributed 4-rank arrays for
// dst(0:11, 2:15) = transpose(src(3:16, 0:11)).
func transposeFixture() (dst, src *hpf.Array2D, dstRect, srcRect section.Rect) {
	sg := dist.MustNewGrid(dist.MustNew(2, 3), dist.MustNew(2, 2))
	dg := dist.MustNewGrid(dist.MustNew(2, 2), dist.MustNew(2, 5))
	src = hpf.MustNewArray2D(sg, 18, 14)
	dst = hpf.MustNewArray2D(dg, 16, 20)
	for i := int64(0); i < 18; i++ {
		for j := int64(0); j < 14; j++ {
			src.Set(i, j, float64(i*100+j))
		}
	}
	dstRect, _ = section.NewRect(section.MustNew(0, 11, 1), section.MustNew(2, 15, 1))
	srcRect, _ = section.NewRect(section.MustNew(3, 16, 1), section.MustNew(0, 11, 1))
	return dst, src, dstRect, srcRect
}

func TestTranspose2DSurvivesDelayDupReorder(t *testing.T) {
	for _, seed := range []int64{5, 19} {
		dst, src, dstRect, srcRect := transposeFixture()
		m := machine.MustNew(4)
		m.SetFaults(&machine.FaultPlan{
			Seed: seed, Delay: 0.25, Dup: 0.25, Reorder: 0.25, CrashRank: -1,
		})
		if err := Transpose2D(m, dst, dstRect, src, srcRect); err != nil {
			t.Fatal(err)
		}
		for t0 := int64(0); t0 < dstRect[0].Count(); t0++ {
			for t1 := int64(0); t1 < dstRect[1].Count(); t1++ {
				want := src.Get(srcRect[0].Element(t1), srcRect[1].Element(t0))
				if got := dst.Get(dstRect[0].Element(t0), dstRect[1].Element(t1)); got != want {
					t.Fatalf("seed %d: position (%d,%d) = %v, want %v", seed, t0, t1, got, want)
				}
			}
		}
		if len(m.FaultEvents()) == 0 {
			t.Errorf("seed %d: no faults injected; transpose not exercised", seed)
		}
	}
}

// TestTranspose2DDropBecomesStructuredFailure: a 2-D statement runs on
// the 1-D executor, so a lost message surfaces as the same deadlock
// diagnostic naming the comm tag.
func TestTranspose2DDropBecomesStructuredFailure(t *testing.T) {
	dst, src, dstRect, srcRect := transposeFixture()
	m := machine.MustNew(4)
	m.SetFaults(&machine.FaultPlan{Seed: 3, Drop: 1, CrashRank: -1})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected deadlock abort when every message is dropped")
		}
		msg := r.(string)
		if !strings.Contains(msg, "deadlock") || !strings.Contains(msg, "comm.copy") {
			t.Errorf("diagnostic %q should name the deadlock and the comm tag", msg)
		}
	}()
	_ = Transpose2D(m, dst, dstRect, src, srcRect)
	t.Fatal("Transpose2D with all messages dropped should not complete")
}
