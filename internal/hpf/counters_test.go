package hpf

import (
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/telemetry"
)

// kernelCounterDeltas runs fn and returns how every codegen.kernel_*
// counter moved.
func kernelCounterDeltas(fn func()) map[string]int64 {
	before := telemetry.Default().Snapshot().Counters
	fn()
	after := telemetry.Default().Snapshot().Counters
	d := map[string]int64{}
	for name, v := range after {
		if strings.HasPrefix(name, "codegen.kernel_") && v != before[name] {
			d[name] = v - before[name]
		}
	}
	return d
}

// TestKernelCountersExactPerOp pins the accounting contract of the
// per-kind kernel counters: every section op increments
// codegen.kernel_invocations.<kind> exactly once per executing plan —
// on the cached plan path, on a fresh compile, and on the traced path
// with an access recorder active — while codegen.kernel_selected.<kind>
// moves only when a plan is actually compiled.
func TestKernelCountersExactPerOp(t *testing.T) {
	for _, tc := range kernelFamilies() {
		t.Run(tc.name, func(t *testing.T) {
			ResetSectionPlanCache()
			a := MustNewArray(dist.MustNew(tc.p, tc.k), tc.n)
			// Compile the plans up front; wantInvoked is the exact per-kind
			// census of plans that execute (processors owning elements).
			sp, err := a.cachedSectionPlans(tc.sec)
			if err != nil {
				t.Fatal(err)
			}
			wantInvoked := map[string]int64{}
			for m := range sp.plans {
				if sp.plans[m].start >= 0 {
					wantInvoked["codegen.kernel_invocations."+sp.plans[m].kernel.Kind().String()]++
				}
			}
			if len(wantInvoked) == 0 {
				t.Fatal("no executing plans in fixture")
			}

			checkOp := func(path, op string, fn func()) {
				t.Helper()
				d := kernelCounterDeltas(fn)
				for name, want := range wantInvoked {
					if d[name] != want {
						t.Errorf("%s %s: %s moved %d, want exactly %d (deltas %v)", path, op, name, d[name], want, d)
					}
					delete(d, name)
				}
				for name, got := range d {
					if strings.HasPrefix(name, "codegen.kernel_selected.") {
						if path != "uncached" {
							t.Errorf("%s %s: %s moved %d on a cached plan", path, op, name, got)
						}
						continue
					}
					t.Errorf("%s %s: unexpected counter movement %s %+d", path, op, name, got)
				}
			}

			// Cached path: the plans above are reused, no re-selection.
			checkOp("cached", "fill", func() {
				if err := a.FillSection(tc.sec, 1); err != nil {
					t.Fatal(err)
				}
			})
			checkOp("cached", "map", func() {
				if err := a.MapSection(tc.sec, func(v float64) float64 { return v + 1 }); err != nil {
					t.Fatal(err)
				}
			})
			checkOp("cached", "sum", func() {
				if _, err := a.SumSection(tc.sec); err != nil {
					t.Fatal(err)
				}
			})

			// Traced path: with a recorder active the ops run the traced
			// kernels, which must count identically (not double).
			telemetry.StartAccessRecording(int(tc.p), 1<<16)
			checkOp("cached+traced", "fill", func() {
				if err := a.FillSection(tc.sec, 2); err != nil {
					t.Fatal(err)
				}
			})
			checkOp("cached+traced", "sum", func() {
				if _, err := a.SumSection(tc.sec); err != nil {
					t.Fatal(err)
				}
			})
			telemetry.StopAccessRecording()

			// Uncached path: a fresh compile re-selects once per compiled
			// plan but still invokes each kernel exactly once.
			ResetSectionPlanCache()
			checkOp("uncached", "fill", func() {
				if err := a.FillSection(tc.sec, 3); err != nil {
					t.Fatal(err)
				}
			})
			want := "codegen.kernel_selected." + tc.want.String()
			d := kernelCounterDeltas(func() {
				ResetSectionPlanCache()
				if _, err := a.cachedSectionPlans(tc.sec); err != nil {
					t.Fatal(err)
				}
			})
			if d[want] < 1 {
				t.Errorf("fresh compile did not move %s (deltas %v)", want, d)
			}
			for name := range d {
				if strings.HasPrefix(name, "codegen.kernel_invocations.") {
					t.Errorf("plan compilation moved invocation counter %s (deltas %v)", name, d)
				}
			}
		})
	}
}
