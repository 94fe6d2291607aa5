package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// run selects at most one table or figure and never writes JSON.
func run(table, figure int, all bool, procs int64, reps int, elems int64) error {
	cfg := config{Figure: figure, All: all, Procs: procs, Reps: reps, Elems: elems}
	if table != 0 {
		cfg.Table = []int{table}
	}
	return runConfig(cfg)
}

// The run paths are exercised with tiny workloads; absolute timings are
// irrelevant here, only that every table renders without error.
func TestRunTable1(t *testing.T) {
	if err := run(1, 0, false, 2, 1, 100); err != nil {
		t.Fatal(err)
	}
}

func TestRunFigure7(t *testing.T) {
	if err := run(0, 7, false, 2, 1, 100); err != nil {
		t.Fatal(err)
	}
}

func TestRunTable2(t *testing.T) {
	if err := run(2, 0, false, 2, 1, 200); err != nil {
		t.Fatal(err)
	}
}

func TestRunNothingSelected(t *testing.T) {
	if err := run(0, 0, false, 2, 1, 100); err == nil {
		t.Error("no selection should fail")
	}
}

func TestRunCacheWithJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	cfg := config{Cache: true, Procs: 2, Reps: 1, Elems: 100, JSONPath: path}
	if err := runConfig(cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if rep.Schema != "benchtables/v1" {
		t.Errorf("schema = %q", rep.Schema)
	}
	if len(rep.Cache) != 3 {
		t.Errorf("got %d cache rows, want 3", len(rep.Cache))
	}
	for _, r := range rep.Cache {
		if r.SteadyMisses != 0 {
			t.Errorf("%s: steady misses = %d, want 0", r.Name, r.SteadyMisses)
		}
	}
	if rep.Config.Procs != 2 {
		t.Errorf("config procs = %d", rep.Config.Procs)
	}
	// The telemetry snapshot rides along with every -json report.
	if rep.Telemetry == nil {
		t.Fatal("report has no telemetry snapshot")
	}
	if rep.Telemetry.Schema != "telemetry/v1" {
		t.Errorf("telemetry schema = %q, want telemetry/v1", rep.Telemetry.Schema)
	}
	// The benchmarks reset the global caches between families, so the
	// values may be zero here — what matters is that each registered
	// cache publishes its gauges into the snapshot.
	if _, ok := rep.Telemetry.Gauges["plancache.core.tables.hits"]; !ok {
		t.Error("telemetry snapshot missing plancache.core.tables.hits gauge")
	}
}

func TestRunLocalityWithJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "locality.json")
	cfg := config{Locality: true, Procs: 2, Reps: 1, Elems: 128, JSONPath: path}
	if err := runConfig(cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if rep.Schema != "benchtables/v1" {
		t.Errorf("schema = %q", rep.Schema)
	}
	if len(rep.Locality) != 7 {
		t.Fatalf("got %d locality rows, want 7 (one per shape family)", len(rep.Locality))
	}
	for _, r := range rep.Locality {
		if r.Sweeps != 2 || r.Elems != 128 {
			t.Errorf("%s: row config = %+v", r.Family, r)
		}
		for _, p := range []reportLocalityProfile{r.Cyclic, r.Block} {
			if p.Accesses != 2*2*128 {
				t.Errorf("%s: accesses = %d, want %d", r.Family, p.Accesses, 2*2*128)
			}
			if p.Lines <= 0 || len(p.Miss) == 0 || p.Kernel == "" {
				t.Errorf("%s: incomplete profile %+v", r.Family, p)
			}
		}
		// Block distributions collapse to a const-gap kernel.
		if r.Block.Kernel != "constgap" {
			t.Errorf("%s: block kernel = %q", r.Family, r.Block.Kernel)
		}
	}
}

// TestBadFlagsFail: a flag value no benchmark can run with is an error
// that names the flag, raised before any run starts (a machine failure,
// a matrix of zeros or a silently dropped selection is not).
func TestBadFlagsFail(t *testing.T) {
	ok := config{Procs: 4, Reps: 1, Elems: 100}
	for _, tc := range []struct {
		name, flag string
		edit       func(*config)
	}{
		{"table 1 reps 0", "-reps", func(c *config) { c.Table, c.Reps = []int{1}, 0 }},
		{"table 2 reps 0", "-reps", func(c *config) { c.Table, c.Reps = []int{2}, 0 }},
		{"shapes p 0", "-p", func(c *config) { c.Shapes, c.Procs = true, 0 }},
		{"table 2 p -1", "-p", func(c *config) { c.Table, c.Procs = []int{2}, -1 }},
		{"locality p 0", "-p", func(c *config) { c.Locality, c.Procs = true, 0 }},
		{"table 2 elems 0", "-elems", func(c *config) { c.Table, c.Elems = []int{2}, 0 }},
		{"table 3 figure 7", "-table", func(c *config) { c.Table, c.Figure = []int{3}, 7 }},
		{"table 1 table 3", "-table", func(c *config) { c.Table = []int{1, 3} }},
		{"figure 8", "-figure", func(c *config) { c.Figure = 8 }},
	} {
		cfg := ok
		tc.edit(&cfg)
		err := runConfig(cfg)
		if err == nil || !strings.HasPrefix(err.Error(), tc.flag+" ") {
			t.Errorf("%s: error %v, want one naming %s", tc.name, err, tc.flag)
		}
	}
}

func TestUnwritableJSONPath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "no", "such", "dir", "bench.json")
	err := runConfig(config{Cache: true, Procs: 2, Reps: 1, Elems: 100,
		JSONPath: path})
	if err == nil {
		t.Fatal("unwritable -json path should fail")
	}
	if !strings.Contains(err.Error(), "-json") {
		t.Errorf("error %q should name the -json flag", err)
	}
}

// TestBadPprofAddrFailsFast: the -pprof listener must bind before any
// benchmark runs, so an unusable address is a startup error naming the
// flag — not an async complaint mid-run.
func TestBadPprofAddrFailsFast(t *testing.T) {
	err := runConfig(config{Cache: true, Procs: 2, Reps: 1, Elems: 100,
		PprofAddr: "256.256.256.256:1"})
	if err == nil {
		t.Fatal("unusable -pprof address should fail the run")
	}
	if !strings.Contains(err.Error(), "-pprof") {
		t.Errorf("error %q should name the -pprof flag", err)
	}
}
