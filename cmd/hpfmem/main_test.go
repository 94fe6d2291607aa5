package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

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
	dir := t.TempDir()
	path := filepath.Join(dir, "truncated.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

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
