package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/telemetry"
)

// traceFiles runs a small traced 2-rank workload and writes it out in
// both container formats, returning their paths.
func traceFiles(t *testing.T) (chromePath, v1Path string) {
	t.Helper()
	tr := telemetry.StartTracing(2, 1024)
	defer telemetry.StopTracing()
	m := machine.MustNew(2)
	m.Run(func(p *machine.Proc) {
		if p.Rank() == 0 {
			p.Send(1, "ping", []float64{1, 2, 3})
			p.Recv(1, "pong")
		} else {
			p.Recv(0, "ping")
			p.Send(0, "pong", []float64{4})
		}
		p.Barrier()
	})
	dir := t.TempDir()
	chromePath = filepath.Join(dir, "chrome.json")
	v1Path = filepath.Join(dir, "v1.json")
	cf, err := os.Create(chromePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteChromeTrace(cf); err != nil {
		t.Fatal(err)
	}
	cf.Close()
	vf, err := os.Create(v1Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteTraceV1(vf); err != nil {
		t.Fatal(err)
	}
	vf.Close()
	return chromePath, v1Path
}

func TestTextReport(t *testing.T) {
	chromePath, v1Path := traceFiles(t)
	for name, path := range map[string]string{"chrome": chromePath, "trace/v1": v1Path} {
		var out, errOut bytes.Buffer
		if err := run(&out, &errOut, path, 10, 0, false); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		report := out.String()
		for _, want := range []string{
			"hpfprof report: 2 ranks",
			"Critical path:",
			"Per-rank time breakdown:",
			"Load imbalance:",
			"Communication matrix (2 messages",
		} {
			if !strings.Contains(report, want) {
				t.Errorf("%s: report missing %q:\n%s", name, want, report)
			}
		}
		if strings.Contains(report, "WARNING") {
			t.Errorf("%s: unexpected truncation warning:\n%s", name, report)
		}
	}
}

func TestJSONReport(t *testing.T) {
	_, v1Path := traceFiles(t)
	var out, errOut bytes.Buffer
	if err := run(&out, &errOut, v1Path, 10, 0, true); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema       string `json:"schema"`
		Ranks        int    `json:"ranks"`
		CriticalPath struct {
			TotalNs int64 `json:"total_ns"`
			Steps   []any `json:"steps"`
		} `json:"critical_path"`
		WallClockNs int64  `json:"wall_clock_ns"`
		Dropped     *int64 `json:"dropped"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("-json output is not JSON: %v\n%s", err, out.String())
	}
	if doc.Schema != ReportSchema {
		t.Errorf("schema = %q, want %q", doc.Schema, ReportSchema)
	}
	if doc.Ranks != 2 || len(doc.CriticalPath.Steps) == 0 {
		t.Errorf("ranks %d, %d path steps; want 2 ranks and a non-empty path",
			doc.Ranks, len(doc.CriticalPath.Steps))
	}
	if doc.CriticalPath.TotalNs <= 0 || doc.CriticalPath.TotalNs > doc.WallClockNs {
		t.Errorf("critical path %d vs wall clock %d", doc.CriticalPath.TotalNs, doc.WallClockNs)
	}
	if doc.Dropped == nil || *doc.Dropped != 0 {
		t.Errorf("dropped = %v, want a 0 field", doc.Dropped)
	}
	if errOut.Len() != 0 {
		t.Errorf("unexpected stderr output: %s", errOut.String())
	}
}

// A truncated trace must shout, in both output modes.
func TestDroppedWarning(t *testing.T) {
	tr := telemetry.NewTracer(1, 4)
	for i := 0; i < 20; i++ {
		tr.Record(telemetry.Event{Kind: telemetry.KindSend, Name: "x", Rank: 0, Peer: 0,
			Seq: int64(i + 1), Start: int64(i * 100), Dur: 50})
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "truncated.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteTraceV1(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var out, errOut bytes.Buffer
	if err := run(&out, &errOut, path, 10, 0, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "WARNING") || !strings.Contains(out.String(), "16 events") {
		t.Errorf("text report does not warn about 16 dropped events:\n%s", out.String())
	}

	out.Reset()
	if err := run(&out, &errOut, path, 10, 0, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut.String(), "WARNING") {
		t.Errorf("-json mode did not warn on stderr: %q", errOut.String())
	}
	if strings.Contains(out.String(), "WARNING") {
		t.Errorf("-json stdout polluted by warning:\n%s", out.String())
	}
}

func TestBadInputs(t *testing.T) {
	if err := run(&bytes.Buffer{}, &bytes.Buffer{}, "/no/such/file.json", 10, 0, false); err == nil {
		t.Error("no error for missing file")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(&bytes.Buffer{}, &bytes.Buffer{}, bad, 10, 0, false); err == nil {
		t.Error("no error for non-trace input")
	}
}

// serveTraceFile records a small hpfd-style request trace — one builder
// with compile phases and one coalesced waiter — and writes it as
// trace/v1.
func serveTraceFile(t *testing.T) string {
	t.Helper()
	tr := telemetry.StartTracing(0, 1024)
	defer telemetry.StopTracing()

	ctx, root := telemetry.StartSpan(context.Background(), "hpfd.request")
	_, adm := telemetry.StartSpan(ctx, "hpfd.admission")
	adm.End()
	bctx, build := telemetry.StartSpan(ctx, "hpfd.build")
	_, tbl := telemetry.StartSpan(bctx, "hpfd.tables")
	tbl.End()
	_, sel := telemetry.StartSpan(bctx, "hpfd.select")
	sel.End()
	_, enc := telemetry.StartSpan(bctx, "hpfd.encode")
	enc.End()
	build.End()
	root.End()

	wctx, wroot := telemetry.StartSpan(context.Background(), "hpfd.request")
	_, wait := telemetry.StartSpan(wctx, "hpfd.wait")
	wait.EndLink(build.Context().Span)
	wroot.End()

	path := filepath.Join(t.TempDir(), "serve.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteTraceV1(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	return path
}

func TestServeReport(t *testing.T) {
	path := serveTraceFile(t)
	var out bytes.Buffer
	if err := runServe(&out, path, false); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"2 requests, 1 builds, 1 coalesced waiters",
		"admission", "build", "tables", "select", "encode", "wait", "unattributed",
		"coalescing tree (1 flights)",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("text report missing %q:\n%s", want, text)
		}
	}

	out.Reset()
	if err := runServe(&out, path, true); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema   string `json:"schema"`
		Requests int    `json:"requests"`
		Builds   int    `json:"builds"`
		Waiters  int    `json:"waiters"`
		Phases   []struct {
			Name string `json:"name"`
		} `json:"phases"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("-serve -json output is not JSON: %v", err)
	}
	if doc.Schema != ServeReportSchema {
		t.Errorf("schema = %q, want %q", doc.Schema, ServeReportSchema)
	}
	if doc.Requests != 2 || doc.Builds != 1 || doc.Waiters != 1 {
		t.Errorf("requests/builds/waiters = %d/%d/%d, want 2/1/1", doc.Requests, doc.Builds, doc.Waiters)
	}
	if len(doc.Phases) != 8 {
		t.Errorf("got %d phases, want 8", len(doc.Phases))
	}
}

// TestServeReportRejectsSPMDTrace: feeding a rank trace to -serve is a
// clear error, not an empty report.
func TestServeReportRejectsSPMDTrace(t *testing.T) {
	_, v1Path := traceFiles(t)
	var out bytes.Buffer
	if err := runServe(&out, v1Path, false); err == nil {
		t.Error("no error for an SPMD trace")
	}
}
