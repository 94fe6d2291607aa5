package main

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// The committed BENCH_tables.json, BENCH_shapes.json and
// BENCH_locality.json are written by full-size runs (see EXPERIMENTS.md).
// These tests run the same benchmarks reduced and check that the
// committed artifacts still describe them: schema, row sets, per-row key
// sets, the kernel each family compiles to (selection is deterministic),
// and positive measurements.

type jsonDoc = map[string]any

// freshReport runs benchtables with cfg and returns its -json document.
func freshReport(t *testing.T, cfg config) jsonDoc {
	t.Helper()
	cfg.JSONPath = filepath.Join(t.TempDir(), "fresh.json")
	if err := runConfig(cfg); err != nil {
		t.Fatal(err)
	}
	return readDoc(t, cfg.JSONPath)
}

func readDoc(t *testing.T, path string) jsonDoc {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc jsonDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return doc
}

func keys(m jsonDoc) []string { return slices.Sorted(maps.Keys(m)) }

// sameKeys fails unless a and b have the same key set.
func sameKeys(t *testing.T, what string, a, b jsonDoc) {
	t.Helper()
	if ka, kb := keys(a), keys(b); !slices.Equal(ka, kb) {
		t.Errorf("%s: fresh keys %v, committed keys %v", what, ka, kb)
	}
}

// rowsBy indexes the rows of list in doc by the values of their key
// fields.
func rowsBy(t *testing.T, doc jsonDoc, list string, key ...string) map[string]jsonDoc {
	t.Helper()
	rows, ok := doc[list].([]any)
	if !ok || len(rows) == 0 {
		t.Fatalf("document has no %q rows", list)
	}
	out := make(map[string]jsonDoc, len(rows))
	for _, r := range rows {
		row := r.(jsonDoc)
		var id []string
		for _, k := range key {
			id = append(id, fmt.Sprintf("%s=%v", k, row[k]))
		}
		out[strings.Join(id, " ")] = row
	}
	return out
}

// sameRows fails unless got and want hold the same rows with the same
// key sets, and returns them.
func sameRows(t *testing.T, list string, fresh, committed jsonDoc, key ...string) (got, want map[string]jsonDoc) {
	t.Helper()
	got, want = rowsBy(t, fresh, list, key...), rowsBy(t, committed, list, key...)
	if g, w := slices.Sorted(maps.Keys(got)), slices.Sorted(maps.Keys(want)); !slices.Equal(g, w) {
		t.Fatalf("%s rows: fresh %v, committed %v", list, g, w)
	}
	for id := range got {
		sameKeys(t, list+" "+id, got[id], want[id])
	}
	return got, want
}

// compareArtifact checks the parts every benchtables/v1 artifact shares
// and returns both documents' rows of list, keyed by the key fields.
func compareArtifact(t *testing.T, fresh, committed jsonDoc, list string, key ...string) (got, want map[string]jsonDoc) {
	t.Helper()
	for _, doc := range []jsonDoc{fresh, committed} {
		if doc["schema"] != "benchtables/v1" {
			t.Fatalf("schema = %v, want benchtables/v1", doc["schema"])
		}
	}
	sameKeys(t, "document", fresh, committed)
	return sameRows(t, list, fresh, committed, key...)
}

// minReps fails unless the committed artifact took at least 9 reps.
func minReps(t *testing.T, committed jsonDoc) {
	t.Helper()
	if reps, _ := committed["config"].(jsonDoc)["reps"].(float64); reps < 9 {
		t.Errorf("committed artifact took %v reps, want at least 9", reps)
	}
}

// registered fails unless every counter, gauge and histogram the
// committed artifact's telemetry block names is registered in this
// process, which has just run the same matrix: a name no code defines
// any more is stale telemetry.
func registered(t *testing.T, committed jsonDoc) {
	t.Helper()
	block, ok := committed["telemetry"].(jsonDoc)
	if !ok {
		t.Fatal("committed artifact has no telemetry block")
	}
	snap := telemetry.Default().Snapshot()
	for kind, live := range map[string][]string{
		"counters":   slices.Collect(maps.Keys(snap.Counters)),
		"gauges":     slices.Collect(maps.Keys(snap.Gauges)),
		"histograms": slices.Collect(maps.Keys(snap.Histograms)),
	} {
		names, _ := block[kind].(jsonDoc)
		for name := range names {
			if !slices.Contains(live, name) {
				t.Errorf("committed telemetry %s names %s, which nothing registers", kind, name)
			}
		}
	}
}

// positive fails unless v is a JSON number above zero.
func positive(t *testing.T, what string, v any) {
	t.Helper()
	if x, ok := v.(float64); !ok || x <= 0 {
		t.Errorf("%s = %v, want > 0", what, v)
	}
}

// spread fails unless median is positive and iqr is a [first quartile,
// third quartile] pair of positive numbers around it.
func spread(t *testing.T, what string, median, iqr any) {
	t.Helper()
	positive(t, what, median)
	q, _ := iqr.([]any)
	m, _ := median.(float64)
	if len(q) != 2 {
		t.Errorf("%s = %v, want [q1, q3]", what, iqr)
		return
	}
	positive(t, what+"[0]", q[0])
	q1, _ := q[0].(float64)
	q3, _ := q[1].(float64)
	if q1 > m || m > q3 {
		t.Errorf("%s = %v does not bracket the median %v", what, iqr, median)
	}
}

// TestShapesArtifactMatchesFreshRun checks BENCH_shapes.json against a
// p = 8, 500-element shapes matrix. Every timing is a median with its
// quartiles, and the committed one is taken over at least 9 reps.
func TestShapesArtifactMatchesFreshRun(t *testing.T) {
	fresh := freshReport(t, config{Shapes: true, Procs: 8, Reps: 2, Elems: 500})
	committed := readDoc(t, "../../BENCH_shapes.json")
	got, want := compareArtifact(t, fresh, committed, "shapes", "family")
	registered(t, committed)
	minReps(t, committed)
	// The generic family is an A/A control: its specialized fill is the
	// 8(b) loop, so the two timings' quartile ranges must overlap.
	generic := want["family=generic"]
	iqrs, _ := generic["shape_iqr_ns"].(jsonDoc)
	b, _ := iqrs["8(b) test"].([]any)
	sp, _ := generic["specialized_iqr_ns"].([]any)
	if len(b) != 2 || len(sp) != 2 || b[0].(float64) > sp[1].(float64) || sp[0].(float64) > b[1].(float64) {
		t.Errorf("generic row: 8(b) quartiles %v and specialized quartiles %v do not overlap", b, sp)
	}
	for fam, row := range got {
		if row["kernel"] != want[fam]["kernel"] {
			t.Errorf("%s: fresh run compiled %v, committed artifact %v", fam, row["kernel"], want[fam]["kernel"])
		}
		for name, doc := range map[string]jsonDoc{"fresh": row, "committed": want[fam]} {
			what := fam + " " + name
			spread(t, what+" specialized_iqr_ns", doc["specialized_ns"], doc["specialized_iqr_ns"])
			shapes, _ := doc["shape_ns"].(jsonDoc)
			iqrs, _ := doc["shape_iqr_ns"].(jsonDoc)
			sameKeys(t, what+" shape_iqr_ns", iqrs, shapes)
			for sh, median := range shapes {
				spread(t, what+" shape_iqr_ns["+sh+"]", median, iqrs[sh])
			}
		}
	}
}

// TestTablesArtifactMatchesFreshRun checks BENCH_tables.json (Tables 1
// and 2, Figure 7 and the plan-cache families) against a p = 4,
// 500-element run of the same selection.
func TestTablesArtifactMatchesFreshRun(t *testing.T) {
	fresh := freshReport(t, config{Table: []int{1, 2}, Figure: 7, Cache: true, Procs: 4, Reps: 2, Elems: 500})
	committed := readDoc(t, "../../BENCH_tables.json")
	got, want := compareArtifact(t, fresh, committed, "table2", "k", "s")
	registered(t, committed)
	minReps(t, committed)
	for id := range got {
		for name, row := range map[string]jsonDoc{"fresh": got[id], "committed": want[id]} {
			shapes, _ := row["shape_ns"].(jsonDoc)
			iqrs, _ := row["shape_iqr_ns"].(jsonDoc)
			sameKeys(t, "table2 "+id+" "+name+" shape_iqr_ns", iqrs, shapes)
			if len(shapes) != 5 {
				t.Errorf("table2 %s %s: %d shapes, want 5", id, name, len(shapes))
			}
			for sh, median := range shapes {
				spread(t, "table2 "+id+" "+name+" "+sh, median, iqrs[sh])
			}
		}
	}
	for _, list := range []string{"table1", "figure7"} {
		got, want := sameRows(t, list, fresh, committed, "k")
		for id := range got {
			for name, row := range map[string]jsonDoc{"fresh": got[id], "committed": want[id]} {
				for stride, c := range rowsBy(t, row, "cells", "stride") {
					what := list + " " + id + " " + stride + " " + name
					spread(t, what+" lattice", c["lattice_ns"], c["lattice_iqr_ns"])
					spread(t, what+" sorting", c["sorting_ns"], c["sorting_iqr_ns"])
				}
			}
			sameRows(t, "cells", got[id], want[id], "stride")
		}
	}
	got, want = sameRows(t, "cache", fresh, committed, "name")
	for id := range got {
		for name, row := range map[string]jsonDoc{"fresh": got[id], "committed": want[id]} {
			what := "cache " + id + " " + name
			spread(t, what+" uncached", row["uncached_ns_per_op"], row["uncached_iqr_ns"])
			spread(t, what+" cached", row["cached_ns_per_op"], row["cached_iqr_ns"])
			if row["steady_misses"] != 0.0 {
				t.Errorf("%s: steady_misses = %v, want 0", what, row["steady_misses"])
			}
		}
	}
}

// TestLocalityArtifactMatchesFreshRun checks BENCH_locality.json against
// a p = 8, 512-element locality matrix.
func TestLocalityArtifactMatchesFreshRun(t *testing.T) {
	fresh := freshReport(t, config{Locality: true, Procs: 8, Reps: 1, Elems: 512})
	committed := readDoc(t, "../../BENCH_locality.json")
	got, want := compareArtifact(t, fresh, committed, "locality", "family")
	registered(t, committed)
	for fam, row := range got {
		for _, layout := range []string{"cyclic", "block"} {
			what := fam + " " + layout
			p, _ := row[layout].(jsonDoc)
			w, _ := want[fam][layout].(jsonDoc)
			sameKeys(t, what, p, w)
			if p["kernel"] != w["kernel"] {
				t.Errorf("%s: fresh run compiled %v, committed artifact %v", what, p["kernel"], w["kernel"])
			}
			for name, doc := range map[string]jsonDoc{"fresh": p, "committed": w} {
				positive(t, what+" "+name+" accesses", doc["accesses"])
				positive(t, what+" "+name+" distinct_lines", doc["distinct_lines"])
				rates, _ := doc["miss_rates"].([]any)
				if len(rates) == 0 {
					t.Errorf("%s %s: no miss rates", what, name)
				}
				for _, r := range rates {
					m, _ := r.(jsonDoc)
					positive(t, what+" "+name+" miss_rate", m["miss_rate"])
				}
			}
		}
	}
}
