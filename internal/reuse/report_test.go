package reuse

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// testDoc builds a small two-rank trace with two labeled steps.
func testDoc() *telemetry.AccessDoc {
	r := telemetry.NewAccessRecorder(2, 1024)
	s1 := r.BeginStep("hpf.fill_section:constgap")
	s2 := r.BeginStep("comm.pack")
	// Rank 0: a b a b under step 1, then b a under step 2.
	for _, a := range []int64{10, 20, 10, 20} {
		r.Record(0, a, telemetry.AccessWrite, s1)
	}
	for _, a := range []int64{20, 10} {
		r.Record(0, a, telemetry.AccessRead, s2)
	}
	// Rank 1: all distinct.
	for _, a := range []int64{1, 2, 3} {
		r.Record(1, a, telemetry.AccessRead, s2)
	}
	doc := r.Doc()
	return &doc
}

func TestBuildReportProfiles(t *testing.T) {
	rep := BuildReport(testDoc(), Options{CacheSizes: []int64{2, 64}})
	if rep.Ranks != 2 || rep.Dropped != 0 || len(rep.PerRank) != 2 {
		t.Fatalf("report header = %+v", rep)
	}

	r0 := rep.PerRank[0]
	if r0.Rank != 0 || r0.Accesses != 6 || r0.Writes != 4 || r0.Reads != 2 || r0.Distinct != 2 {
		t.Fatalf("rank 0 profile = %+v", r0)
	}
	// Rank 0 distances: ∞ ∞ 1 1 0 1 → cold 2, finite {1,1,0,1}.
	if r0.Hist.Cold != 2 || r0.Hist.Max != 1 {
		t.Fatalf("rank 0 histogram = %+v", r0.Hist)
	}
	// miss@2: cold(2) only — every finite distance < 2. miss@64 same.
	if r0.MissRates[0].Misses != 2 || r0.MissRates[1].Misses != 2 {
		t.Fatalf("rank 0 miss rates = %+v", r0.MissRates)
	}

	r1 := rep.PerRank[1]
	if r1.Rank != 1 || r1.Accesses != 3 || r1.Distinct != 3 || r1.Hist.Cold != 3 {
		t.Fatalf("rank 1 profile = %+v", r1)
	}

	if len(rep.PerLabel) != 2 {
		t.Fatalf("labels = %+v", rep.PerLabel)
	}
	// Sorted: comm.pack before hpf.fill_section.
	pack, fill := rep.PerLabel[0], rep.PerLabel[1]
	if pack.Label != "comm.pack" || fill.Label != "hpf.fill_section:constgap" {
		t.Fatalf("label order = %q, %q", pack.Label, fill.Label)
	}
	// comm.pack covers rank 0's last two accesses (distances 0, 1 in the
	// full-stream context) and rank 1's three colds.
	if pack.Accesses != 5 || pack.Hist.Cold != 3 {
		t.Fatalf("pack profile = %+v", pack)
	}
	if fill.Accesses != 4 || fill.Hist.Cold != 2 {
		t.Fatalf("fill profile = %+v", fill)
	}
}

// A step listed twice keeps its first label; an access whose step has
// no entry is attributed to "(unlabeled)".
func TestBuildReportStepLabels(t *testing.T) {
	doc := testDoc()
	doc.Steps = append(doc.Steps, telemetry.AccessStep{Step: 1, Label: "repeated"})
	doc.Seqs[1].Accesses = append(doc.Seqs[1].Accesses, telemetry.AccessRec{Addr: 9, Step: 7})
	var got []string
	for _, l := range BuildReport(doc, Options{}).PerLabel {
		got = append(got, fmt.Sprintf("%s:%d", l.Label, l.Accesses))
	}
	want := []string{"(unlabeled):1", "comm.pack:5", "hpf.fill_section:constgap:4"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("per-label accesses = %v, want %v", got, want)
	}
}

func TestBuildReportDeterministic(t *testing.T) {
	ja, _ := json.Marshal(BuildReport(testDoc(), Options{}))
	jb, _ := json.Marshal(BuildReport(testDoc(), Options{}))
	if !bytes.Equal(ja, jb) {
		t.Fatal("report JSON not deterministic")
	}
}

func TestReportWriteText(t *testing.T) {
	var buf bytes.Buffer
	if err := BuildReport(testDoc(), Options{}).WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"per rank:", "per operation label:", "comm.pack", "hpf.fill_section:constgap"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "WARNING") {
		t.Fatalf("unexpected truncation warning:\n%s", out)
	}
}
