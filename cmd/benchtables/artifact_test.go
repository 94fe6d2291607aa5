package main

import (
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/telemetry"
)

// The committed BENCH_shapes.json and BENCH_locality.json are written by
// full-size runs (see EXPERIMENTS.md). These tests run the same matrices
// reduced and check that the committed artifacts still describe them:
// schema, family set, per-family key sets, the kernel each family
// compiles to (selection is deterministic), and positive measurements.

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

// rowsByFamily indexes doc[list] by each row's "family".
func rowsByFamily(t *testing.T, doc jsonDoc, list string) map[string]jsonDoc {
	t.Helper()
	rows, ok := doc[list].([]any)
	if !ok || len(rows) == 0 {
		t.Fatalf("document has no %q rows", list)
	}
	out := make(map[string]jsonDoc, len(rows))
	for _, r := range rows {
		row := r.(jsonDoc)
		out[row["family"].(string)] = row
	}
	return out
}

// compareArtifact checks the parts every benchtables/v1 artifact shares
// and returns both documents' rows of list, keyed by family.
func compareArtifact(t *testing.T, fresh, committed jsonDoc, list string) (got, want map[string]jsonDoc) {
	t.Helper()
	for _, doc := range []jsonDoc{fresh, committed} {
		if doc["schema"] != "benchtables/v1" {
			t.Fatalf("schema = %v, want benchtables/v1", doc["schema"])
		}
	}
	sameKeys(t, "document", fresh, committed)
	got, want = rowsByFamily(t, fresh, list), rowsByFamily(t, committed, list)
	if g, w := slices.Sorted(maps.Keys(got)), slices.Sorted(maps.Keys(want)); !slices.Equal(g, w) {
		t.Fatalf("families: fresh %v, committed %v", g, w)
	}
	for fam := range got {
		sameKeys(t, fam, got[fam], want[fam])
	}
	return got, want
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

// spread fails unless iqr is a [first quartile, third quartile] pair of
// positive numbers around the median.
func spread(t *testing.T, what string, median, iqr any) {
	t.Helper()
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
	got, want := compareArtifact(t, fresh, committed, "shapes")
	registered(t, committed)
	if reps, _ := committed["config"].(jsonDoc)["reps"].(float64); reps < 9 {
		t.Errorf("committed artifact took %v reps, want at least 9", reps)
	}
	for fam, row := range got {
		if row["kernel"] != want[fam]["kernel"] {
			t.Errorf("%s: fresh run compiled %v, committed artifact %v", fam, row["kernel"], want[fam]["kernel"])
		}
		for name, doc := range map[string]jsonDoc{"fresh": row, "committed": want[fam]} {
			what := fam + " " + name
			positive(t, what+" specialized_ns", doc["specialized_ns"])
			spread(t, what+" specialized_iqr_ns", doc["specialized_ns"], doc["specialized_iqr_ns"])
			shapes, _ := doc["shape_ns"].(jsonDoc)
			iqrs, _ := doc["shape_iqr_ns"].(jsonDoc)
			sameKeys(t, what+" shape_iqr_ns", iqrs, shapes)
			for sh, median := range shapes {
				positive(t, what+" shape_ns["+sh+"]", median)
				spread(t, what+" shape_iqr_ns["+sh+"]", median, iqrs[sh])
			}
		}
	}
}

// TestLocalityArtifactMatchesFreshRun checks BENCH_locality.json against
// a p = 8, 512-element locality matrix.
func TestLocalityArtifactMatchesFreshRun(t *testing.T) {
	fresh := freshReport(t, config{Locality: true, Procs: 8, Reps: 1, Elems: 512})
	committed := readDoc(t, "../../BENCH_locality.json")
	got, want := compareArtifact(t, fresh, committed, "locality")
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
