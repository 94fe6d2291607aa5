package hpf

import (
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/section"
	"repro/internal/telemetry"
)

// startRecording installs a process-wide recorder and guarantees it is
// gone when the test ends.
func startRecording(t *testing.T, ranks int) *telemetry.AccessRecorder {
	t.Helper()
	ar := telemetry.StartAccessRecording(ranks, 1<<16)
	t.Cleanup(func() { telemetry.StopAccessRecording() })
	return ar
}

// sectionAccesses derives the expected per-rank local-address sequence
// for a section the slow way: section elements in traversal order,
// routed through the layout.
func sectionAccesses(layout dist.Layout, sec section.Section) map[int32][]int64 {
	want := map[int32][]int64{}
	asc, _ := sec.Ascending()
	for j := int64(0); j < asc.Count(); j++ {
		i := asc.Element(j)
		want[int32(layout.Owner(i))] = append(want[int32(layout.Owner(i))], layout.Local(i))
	}
	return want
}

// TestSectionOpsRecordAccesses drives every kernel family through the
// traced fill/map/sum paths and checks the recorded sequences against
// the brute-force owner/local oracle — per rank, in order, with the
// right rw flags and a kind-qualified step label.
func TestSectionOpsRecordAccesses(t *testing.T) {
	for _, tc := range kernelFamilies() {
		t.Run(tc.name, func(t *testing.T) {
			ResetSectionPlanCache()
			layout := dist.MustNew(tc.p, tc.k)
			a := MustNewArray(layout, tc.n)
			want := sectionAccesses(layout, tc.sec)

			ar := startRecording(t, int(tc.p))
			if err := a.FillSection(tc.sec, 1.0); err != nil {
				t.Fatal(err)
			}
			if err := a.MapSection(tc.sec, func(x float64) float64 { return x + 1 }); err != nil {
				t.Fatal(err)
			}
			if _, err := a.SumSection(tc.sec); err != nil {
				t.Fatal(err)
			}
			doc := ar.Doc()
			telemetry.StopAccessRecording()

			if len(doc.Steps) != 3 {
				t.Fatalf("steps = %+v, want 3", doc.Steps)
			}
			for i, prefix := range []string{"hpf.fill_section:", "hpf.map_section:", "hpf.sum_section:"} {
				label := doc.Steps[i].Label
				if !strings.HasPrefix(label, prefix) || !strings.HasSuffix(label, tc.want.String()) {
					t.Errorf("step %d label = %q, want %s%s", i, label, prefix, tc.want)
				}
			}
			if doc.Dropped != 0 {
				t.Fatalf("dropped %d records; raise the test capacity", doc.Dropped)
			}

			for _, seq := range doc.Seqs {
				wantAddrs := want[seq.Rank]
				// Per rank: fill writes the sequence once, map reads+writes
				// it, sum reads it → 4 records per owned element.
				if got, want := len(seq.Accesses), 4*len(wantAddrs); got != want {
					t.Fatalf("rank %d: %d records, want %d", seq.Rank, got, want)
				}
				n := len(wantAddrs)
				for j, rec := range seq.Accesses[:n] { // fill
					if rec.Addr != wantAddrs[j] || !rec.Write || rec.Step != doc.Steps[0].Step {
						t.Fatalf("rank %d fill[%d] = %+v, want write of %d", seq.Rank, j, rec, wantAddrs[j])
					}
				}
				for j := 0; j < n; j++ { // map: read, write per element
					rd, wr := seq.Accesses[n+2*j], seq.Accesses[n+2*j+1]
					if rd.Addr != wantAddrs[j] || rd.Write || wr.Addr != wantAddrs[j] || !wr.Write {
						t.Fatalf("rank %d map[%d] = %+v %+v", seq.Rank, j, rd, wr)
					}
				}
				for j, rec := range seq.Accesses[3*n:] { // sum
					if rec.Addr != wantAddrs[j] || rec.Write {
						t.Fatalf("rank %d sum[%d] = %+v", seq.Rank, j, rec)
					}
				}
			}
		})
	}
}

// TestGatherSectionRecordAccesses checks the elementwise section path
// traces through the layout oracle too.
func TestGatherSectionRecordAccesses(t *testing.T) {
	layout := dist.MustNew(3, 4)
	a := MustNewArray(layout, 60)
	sec := section.MustNew(2, 55, 3)
	want := sectionAccesses(layout, sec)

	ar := startRecording(t, 3)
	if _, err := a.GatherSection(sec); err != nil {
		t.Fatal(err)
	}
	doc := ar.Doc()
	telemetry.StopAccessRecording()

	if len(doc.Steps) != 1 || doc.Steps[0].Label != "hpf.gather_section" {
		t.Fatalf("steps = %+v", doc.Steps)
	}
	for _, seq := range doc.Seqs {
		wantAddrs := want[seq.Rank]
		if got, want := len(seq.Accesses), len(wantAddrs); got != want {
			t.Fatalf("rank %d: %d records, want %d", seq.Rank, got, want)
		}
		for j, rec := range seq.Accesses {
			if rec.Addr != wantAddrs[j] || rec.Write {
				t.Fatalf("rank %d gather[%d] = %+v", seq.Rank, j, rec)
			}
		}
	}
}

// The warm section ops must stay allocation-free when access recording
// is disabled — the recorder check is a single atomic load.
func TestWarmSectionOpsZeroAllocsWithRecorderStopped(t *testing.T) {
	telemetry.StopAccessRecording()
	a := MustNewArray(dist.MustNew(4, 8), 4096)
	sec := section.MustNew(0, 4095, 3)
	if err := a.FillSection(sec, 1.0); err != nil { // warm the plan cache
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := a.FillSection(sec, 2.0); err != nil {
			t.Fatal(err)
		}
		if err := a.MapSection(sec, mapAdd1); err != nil {
			t.Fatal(err)
		}
		if _, err := a.SumSection(sec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm section ops with recorder stopped: %v allocs/op, want 0", allocs)
	}
}
