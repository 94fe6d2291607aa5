package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/hpf"
	"repro/internal/machine"
	"repro/internal/section"
	"repro/internal/telemetry"
)

// accessFile records a small two-rank access trace and writes it as an
// accesstrace/v1 document, returning its path.
func accessFile(t *testing.T) string {
	t.Helper()
	r := telemetry.NewAccessRecorder(2, 1024)
	step := r.BeginStep("hpf.fill_section:constgap")
	for rank := int32(0); rank < 2; rank++ {
		for sweep := 0; sweep < 2; sweep++ {
			for a := int64(0); a < 50; a++ {
				r.Record(rank, 3*a, telemetry.AccessWrite, step)
			}
		}
	}
	return writeTrace(t, r)
}

// writeTrace writes r as an accesstrace/v1 document and returns its path.
func writeTrace(t *testing.T, r *telemetry.AccessRecorder) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "access.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	return path
}

func TestTextReport(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run(&out, &errOut, accessFile(t), "", false); err != nil {
		t.Fatal(err)
	}
	report := out.String()
	for _, want := range []string{
		"Reuse-distance locality report (2 ranks",
		"per rank:",
		"per operation label:",
		"hpf.fill_section:constgap",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
	if strings.Contains(report, "WARNING") {
		t.Errorf("unexpected truncation warning:\n%s", report)
	}
}

func TestJSONReport(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run(&out, &errOut, accessFile(t), "16,1024", true); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema  string  `json:"schema"`
		Ranks   int     `json:"ranks"`
		Dropped int64   `json:"dropped"`
		Caches  []int64 `json:"cache_sizes"`
		PerRank []struct {
			Rank     int32 `json:"rank"`
			Accesses int64 `json:"accesses"`
			Distinct int64 `json:"distinct_addrs"`
		} `json:"per_rank"`
		PerLabel []struct {
			Label string `json:"label"`
		} `json:"per_label"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("-json output is not JSON: %v\n%s", err, out.String())
	}
	if doc.Schema != ReportSchema {
		t.Errorf("schema = %q, want %q", doc.Schema, ReportSchema)
	}
	if doc.Ranks != 2 || len(doc.PerRank) != 2 {
		t.Errorf("ranks = %d, per_rank = %+v", doc.Ranks, doc.PerRank)
	}
	if want := []int64{16, 1024}; len(doc.Caches) != 2 || doc.Caches[0] != want[0] || doc.Caches[1] != want[1] {
		t.Errorf("-caches not honored: %v", doc.Caches)
	}
	for _, p := range doc.PerRank {
		if p.Accesses != 100 || p.Distinct != 50 {
			t.Errorf("rank %d: accesses %d distinct %d, want 100/50", p.Rank, p.Accesses, p.Distinct)
		}
	}
	if len(doc.PerLabel) != 1 || doc.PerLabel[0].Label != "hpf.fill_section:constgap" {
		t.Errorf("per_label = %+v", doc.PerLabel)
	}
	if errOut.Len() != 0 {
		t.Errorf("unexpected stderr output: %s", errOut.String())
	}
}

// A trace whose rings overwrote records must shout — on stderr in -json
// mode so stdout stays machine-readable, inline in text mode.
func TestDroppedWarning(t *testing.T) {
	r := telemetry.NewAccessRecorder(1, 64)
	step := r.BeginStep("hpf.fill_section:generic")
	for a := int64(0); a < 200; a++ {
		r.Record(0, a, telemetry.AccessRead, step)
	}
	path := writeTrace(t, r)

	var out, errOut bytes.Buffer
	if err := run(&out, &errOut, path, "", false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "WARNING") || !strings.Contains(out.String(), "136") {
		t.Errorf("text report does not warn about 136 dropped records:\n%s", out.String())
	}

	out.Reset()
	if err := run(&out, &errOut, path, "", true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut.String(), "WARNING") || !strings.Contains(errOut.String(), "136") {
		t.Errorf("-json mode did not warn on stderr: %q", errOut.String())
	}
	if strings.Contains(out.String(), "WARNING") {
		t.Errorf("-json stdout polluted by warning:\n%s", out.String())
	}
	var doc map[string]any
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("-json stdout not valid JSON after warning: %v", err)
	}
}

// TestJacobiSweepJSON records four sweeps of a 4-rank jacobi relaxation
// (comm.Combine, MapSection, comm.Copy) and checks the -json report end
// to end: schema, nothing dropped, every rank present, the pack and map
// labels, and each rank's histogram counting every access once.
func TestJacobiSweepJSON(t *testing.T) {
	const p, n = 4, 64
	layout := dist.MustNew(p, 4)
	x := hpf.MustNewArray(layout, n)
	tmp := hpf.MustNewArray(layout, n)
	x.Set(n-1, 1)
	interior := section.MustNew(1, n-2, 1)
	m := machine.MustNew(p)
	telemetry.StartAccessRecording(p, 1<<14)
	for sweep := 0; sweep < 4; sweep++ {
		err := comm.Combine(m, tmp, interior, x, section.MustNew(0, n-3, 1), x, section.MustNew(2, n-1, 1), comm.Add)
		if err == nil {
			err = tmp.MapSection(interior, func(v float64) float64 { return 0.5 * v })
		}
		if err == nil {
			err = comm.Copy(m, x, interior, tmp, interior)
		}
		if err != nil {
			telemetry.StopAccessRecording()
			t.Fatal(err)
		}
	}
	path := writeTrace(t, telemetry.StopAccessRecording())

	var out, errOut bytes.Buffer
	if err := run(&out, &errOut, path, "", true); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema  string `json:"schema"`
		Ranks   int    `json:"ranks"`
		Dropped int64  `json:"dropped"`
		PerRank []struct {
			Accesses  int64 `json:"accesses"`
			Histogram struct {
				Total int64 `json:"total"`
			} `json:"histogram"`
		} `json:"per_rank"`
		PerLabel []struct {
			Label string `json:"label"`
		} `json:"per_label"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("-json output is not JSON: %v\n%s", err, out.String())
	}
	if doc.Schema != ReportSchema || doc.Dropped != 0 || doc.Ranks != p || len(doc.PerRank) != p {
		t.Errorf("schema %q, dropped %d, ranks %d, per_rank %d; want %q, 0, %d, %d",
			doc.Schema, doc.Dropped, doc.Ranks, len(doc.PerRank), ReportSchema, p, p)
	}
	var pack, mapped bool
	for _, l := range doc.PerLabel {
		pack = pack || l.Label == "comm.pack"
		mapped = mapped || strings.HasPrefix(l.Label, "hpf.map_section:")
	}
	if !pack || !mapped {
		t.Errorf("per_label %+v lacks comm.pack or an hpf.map_section:* label", doc.PerLabel)
	}
	for i, r := range doc.PerRank {
		if r.Accesses == 0 || r.Histogram.Total != r.Accesses {
			t.Errorf("rank %d: histogram total %d, accesses %d", i, r.Histogram.Total, r.Accesses)
		}
	}
}

func TestBadInputs(t *testing.T) {
	if err := run(&bytes.Buffer{}, &bytes.Buffer{}, "/no/such/trace.json", "", false); err == nil {
		t.Error("no error for missing file")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("not an access trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(&bytes.Buffer{}, &bytes.Buffer{}, bad, "", false); err == nil {
		t.Error("no error for non-trace input")
	}
	path := accessFile(t)
	for _, caches := range []string{"zero", "-1", "12,"} {
		if err := run(&bytes.Buffer{}, &bytes.Buffer{}, path, caches, false); err == nil {
			t.Errorf("no error for -caches %q", caches)
		}
	}
}
