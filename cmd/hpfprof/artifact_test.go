package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/telemetry"
)

// TestBenchTraceMatchesArtifact traces the plan-cache benchmarks at
// p = 8, as `benchtables -cache -reps 1 -p 8 -trace` does, builds the
// -json report with the critical path capped at 200 steps, and checks
// it against the committed BENCH_trace.json: same schema, same
// top-level keys, and a non-empty critical path.
func TestBenchTraceMatchesArtifact(t *testing.T) {
	tr := telemetry.StartTracing(8, 1<<14)
	_, err := bench.CacheBenchmarks(8, 1)
	telemetry.StopTracing()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench_trace.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var out, errOut bytes.Buffer
	if err := run(&out, &errOut, path, 10, 200, true); err != nil {
		t.Fatal(err)
	}
	var fresh, committed map[string]any
	if err := json.Unmarshal(out.Bytes(), &fresh); err != nil {
		t.Fatalf("report: %v", err)
	}
	data, err := os.ReadFile("../../BENCH_trace.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &committed); err != nil {
		t.Fatalf("BENCH_trace.json: %v", err)
	}
	if fresh["schema"] != ReportSchema || committed["schema"] != ReportSchema {
		t.Errorf("schemas: fresh %v, committed %v, want %s", fresh["schema"], committed["schema"], ReportSchema)
	}
	if fk, ck := slices.Sorted(maps.Keys(fresh)), slices.Sorted(maps.Keys(committed)); !slices.Equal(fk, ck) {
		t.Errorf("top-level keys: fresh %v, committed %v", fk, ck)
	}
	cp, _ := fresh["critical_path"].(map[string]any)
	if steps, _ := cp["steps"].([]any); len(steps) == 0 {
		t.Error("empty critical path")
	}
}
