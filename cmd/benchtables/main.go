// Command benchtables regenerates the paper's evaluation tables and
// figure on the host machine:
//
//	benchtables -table 1              # Table 1 (lattice vs sorting)
//	benchtables -figure 7             # Figure 7 series (Table 1's s = 7 column)
//	benchtables -table 2              # Table 2 (node code shapes)
//	benchtables -cache                # plan-cache cold vs warm families
//	benchtables -shapes               # generic Figure 8 shapes vs specialized kernels
//	benchtables -locality             # block vs cyclic(k) reuse-distance profiles
//	benchtables -all                  # everything
//	benchtables -all -json out.json   # also write machine-readable results
//	benchtables -all -http :8080      # live /metrics, /trace, /healthz during the runs
//
// Times are wall-clock microseconds on the current host; compare shapes
// and ratios with the paper, not absolute values (see EXPERIMENTS.md).
// The -json schema is documented in README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"

	"repro/internal/bench"
	"repro/internal/reuse"
	"repro/internal/telemetry"
)

func main() {
	var (
		table     = flag.Int("table", 0, "regenerate Table 1 or 2")
		figure    = flag.Int("figure", 0, "regenerate Figure 7")
		cache     = flag.Bool("cache", false, "run the plan-cache cold/warm families")
		shapes    = flag.Bool("shapes", false, "run the shapes matrix (generic Figure 8 shapes vs specialized kernels)")
		locality  = flag.Bool("locality", false, "run the locality matrix (block vs cyclic(k) reuse-distance profiles)")
		all       = flag.Bool("all", false, "regenerate every table and figure")
		procs     = flag.Int64("p", 32, "processor count (the paper uses 32)")
		reps      = flag.Int("reps", 5, "measurement repetitions (min of maxima kept; the shapes matrix reports their median and quartiles)")
		elems     = flag.Int64("elems", 10000, "assignments per processor for Table 2")
		jsonPath  = flag.String("json", "", "write machine-readable results to this file")
		trace     = flag.String("trace", "", "write a Chrome trace_event JSON of the run to this file")
		metrics   = flag.Bool("metrics", false, "dump the telemetry registry as telemetry/v1 JSON after the run")
		httpAddr  = flag.String("http", "", "serve /metrics (Prometheus), /trace (trace/v1) and /healthz on this address during the runs")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	flag.Parse()
	cfg := config{
		Table: *table, Figure: *figure, Cache: *cache, Shapes: *shapes,
		Locality: *locality, All: *all,
		Procs: *procs, Reps: *reps, Elems: *elems, JSONPath: *jsonPath,
		TracePath: *trace, Metrics: *metrics, PprofAddr: *pprofAddr,
		HTTPAddr: *httpAddr,
	}
	if err := runConfig(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(1)
	}
}

type config struct {
	Table, Figure int
	Cache, All    bool
	Shapes        bool
	Locality      bool
	Procs         int64
	Reps          int
	Elems         int64
	JSONPath      string
	TracePath     string
	Metrics       bool
	PprofAddr     string
	HTTPAddr      string
}

// report is the -json output document. Schema: see README.md
// ("Machine-readable benchmark output"). All durations are nanoseconds.
type report struct {
	Schema  string            `json:"schema"` // "benchtables/v1"
	Config  reportConfig      `json:"config"`
	Table1  []reportRow       `json:"table1,omitempty"`
	Figure7 []reportRow       `json:"figure7,omitempty"`
	Table2  []reportTable2Row `json:"table2,omitempty"`
	Cache   []reportCacheRow  `json:"cache,omitempty"`
	Shapes  []reportShapeRow  `json:"shapes,omitempty"`
	// Locality rows carry line-granularity reuse-distance profiles of
	// each Figure 8 shape family under its cyclic(k) layout vs a block
	// layout (see internal/bench.LocalityBench).
	Locality []reportLocalityRow `json:"locality,omitempty"`
	// Telemetry is the process-wide registry snapshot taken after the
	// runs (schema telemetry/v1): cache hit rates, message counts and
	// comm volumes ride along with the timings.
	Telemetry *telemetry.Snapshot `json:"telemetry,omitempty"`
}

type reportConfig struct {
	Procs int64 `json:"procs"`
	Reps  int   `json:"reps"`
	Elems int64 `json:"elems"`
}

type reportCell struct {
	Stride    string `json:"stride"`
	LatticeNs int64  `json:"lattice_ns"`
	SortingNs int64  `json:"sorting_ns"`
}

type reportRow struct {
	K     int64        `json:"k"`
	Cells []reportCell `json:"cells"`
}

type reportTable2Row struct {
	K       int64            `json:"k"`
	S       int64            `json:"s"`
	ShapeNs map[string]int64 `json:"shape_ns"`
}

// reportShapeRow's timings are medians over the reps; each *_iqr_ns
// holds the matching [first quartile, third quartile].
type reportShapeRow struct {
	Family           string              `json:"family"`
	K                int64               `json:"k"`
	S                int64               `json:"s"`
	Elems            int64               `json:"elems"`
	Kernel           string              `json:"kernel"` // selected specialized kernel kind
	ShapeNs          map[string]int64    `json:"shape_ns"`
	ShapeIQRNs       map[string][2]int64 `json:"shape_iqr_ns"`
	SpecializedNs    int64               `json:"specialized_ns"`
	SpecializedIQRNs [2]int64            `json:"specialized_iqr_ns"`
	SpeedupVsShapeB  float64             `json:"speedup_vs_shape_b"`
}

// iqrNs returns a spread's quartiles in nanoseconds.
func iqrNs(sp bench.Spread) [2]int64 {
	return [2]int64{sp.Q1.Nanoseconds(), sp.Q3.Nanoseconds()}
}

type reportLocalityProfile struct {
	K        int64                `json:"k"`
	Kernel   string               `json:"kernel"`
	Accesses int64                `json:"accesses"`
	Lines    int64                `json:"distinct_lines"`
	MeanDist float64              `json:"mean_distance"`
	MaxDist  int64                `json:"max_distance"`
	Miss     []reuse.MissEstimate `json:"miss_rates"`
}

type reportLocalityRow struct {
	Family string                `json:"family"`
	S      int64                 `json:"s"`
	Elems  int64                 `json:"elems"`
	Sweeps int                   `json:"sweeps"`
	Cyclic reportLocalityProfile `json:"cyclic"`
	Block  reportLocalityProfile `json:"block"`
}

func toLocalityProfile(p bench.LocalityProfile) reportLocalityProfile {
	return reportLocalityProfile{
		K: p.K, Kernel: p.Kernel.String(), Accesses: p.Accesses, Lines: p.Lines,
		MeanDist: p.MeanDist, MaxDist: p.MaxDist, Miss: p.MissRates,
	}
}

type reportCacheRow struct {
	Name                string  `json:"name"`
	UncachedNsPerOp     float64 `json:"uncached_ns_per_op"`
	CachedNsPerOp       float64 `json:"cached_ns_per_op"`
	UncachedAllocsPerOp float64 `json:"uncached_allocs_per_op"`
	CachedAllocsPerOp   float64 `json:"cached_allocs_per_op"`
	HitRate             float64 `json:"hit_rate"`
	SteadyMisses        int64   `json:"steady_misses"`
}

func toReportRows(rows []bench.Row) []reportRow {
	out := make([]reportRow, 0, len(rows))
	for _, r := range rows {
		rr := reportRow{K: r.K}
		for _, c := range r.Cells {
			rr.Cells = append(rr.Cells, reportCell{
				Stride:    c.Stride,
				LatticeNs: c.Lattice.Nanoseconds(),
				SortingNs: c.Sorting.Nanoseconds(),
			})
		}
		out = append(out, rr)
	}
	return out
}

// run keeps the original positional signature used by the tests; it
// never writes JSON.
func run(table, figure int, all bool, procs int64, reps int, elems int64) error {
	return runConfig(config{
		Table: table, Figure: figure, All: all,
		Procs: procs, Reps: reps, Elems: elems,
	})
}

func runConfig(cfg config) error {
	// Flag failure modes surface before any benchmark runs: -reps below
	// 1 (whose min over no reps would print the time.Duration maximum)
	// or an unwritable -json/-trace path exits non-zero immediately, not
	// after minutes of measurement.
	if cfg.Reps < 1 {
		return fmt.Errorf("-reps %d: need at least 1 repetition", cfg.Reps)
	}
	var jsonFile, traceFile *os.File
	cleanup := func() {
		if jsonFile != nil {
			jsonFile.Close()
			os.Remove(cfg.JSONPath)
		}
		if traceFile != nil {
			traceFile.Close()
			os.Remove(cfg.TracePath)
		}
	}
	if cfg.JSONPath != "" {
		f, err := os.Create(cfg.JSONPath)
		if err != nil {
			return fmt.Errorf("cannot write -json output: %w", err)
		}
		jsonFile = f
	}
	if cfg.TracePath != "" {
		f, err := os.Create(cfg.TracePath)
		if err != nil {
			cleanup()
			return fmt.Errorf("cannot write -trace output: %w", err)
		}
		traceFile = f
	}
	// The pprof listener binds synchronously, like -http below: a bad
	// address fails the run before any measurement starts (and ":0"
	// works, with the bound address printed), instead of a goroutine
	// complaining to stderr mid-benchmark.
	if cfg.PprofAddr != "" {
		ln, err := net.Listen("tcp", cfg.PprofAddr)
		if err != nil {
			cleanup()
			return fmt.Errorf("cannot serve on -pprof address: %w", err)
		}
		defer ln.Close()
		go http.Serve(ln, nil)
		fmt.Fprintf(os.Stderr, "benchtables: pprof on http://%s/debug/pprof/\n", ln.Addr())
	}
	if cfg.HTTPAddr != "" {
		ln, err := net.Listen("tcp", cfg.HTTPAddr)
		if err != nil {
			cleanup()
			return fmt.Errorf("cannot serve on -http address: %w", err)
		}
		defer ln.Close()
		go func() {
			srv := &http.Server{Handler: telemetry.Handler()}
			if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed && !errors.Is(err, net.ErrClosed) {
				fmt.Fprintln(os.Stderr, "benchtables: http:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "benchtables: serving /metrics, /trace, /healthz on http://%s/\n", ln.Addr())
	}
	if traceFile != nil {
		telemetry.StartTracing(int(cfg.Procs), 1<<14)
	}
	rep := report{
		Schema: "benchtables/v1",
		Config: reportConfig{Procs: cfg.Procs, Reps: cfg.Reps, Elems: cfg.Elems},
	}
	did, err := runBenches(cfg, &rep)
	if err != nil || !did {
		if traceFile != nil {
			telemetry.StopTracing()
		}
		cleanup()
		if err != nil {
			return err
		}
		return fmt.Errorf("nothing selected: use -table 1, -table 2, -figure 7, -cache, -shapes, -locality or -all")
	}
	if traceFile != nil {
		if t := telemetry.StopTracing(); t != nil {
			if err := t.WriteChromeTrace(traceFile); err != nil {
				traceFile.Close()
				return err
			}
			if err := traceFile.Close(); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "benchtables: wrote %s\n", cfg.TracePath)
		} else {
			traceFile.Close()
			os.Remove(cfg.TracePath)
		}
	}
	if jsonFile != nil {
		snap := telemetry.Default().Snapshot()
		rep.Telemetry = &snap
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			jsonFile.Close()
			return err
		}
		data = append(data, '\n')
		if _, err := jsonFile.Write(data); err != nil {
			jsonFile.Close()
			return err
		}
		if err := jsonFile.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "benchtables: wrote %s\n", cfg.JSONPath)
	}
	if cfg.Metrics {
		fmt.Printf("\ntelemetry registry (%s):\n", telemetry.Schema)
		if err := telemetry.Default().WriteJSON(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

// runBenches runs the selected benchmark families. A machine failure —
// a deadlock detected on a benchmark machine — arrives as a
// panic out of Machine.Run and is converted to an ordinary error here.
func runBenches(cfg config, rep *report) (did bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			did, err = false, fmt.Errorf("machine failure: %v", r)
		}
	}()
	wantTable1, wantFigure7 := cfg.All || cfg.Table == 1, cfg.All || cfg.Figure == 7
	if wantTable1 || wantFigure7 {
		// Figure 7 is Table 1's s = 7 column: measure the table once.
		rows, err := bench.Table1(cfg.Procs, cfg.Reps)
		if err != nil {
			return did, err
		}
		if wantTable1 {
			fmt.Print(bench.FormatTable1(rows))
			fmt.Println()
			rep.Table1 = toReportRows(rows)
		}
		if wantFigure7 {
			fig := bench.Figure7(rows)
			fmt.Print(bench.FormatFigure7(fig))
			fmt.Println()
			rep.Figure7 = toReportRows(fig)
		}
		did = true
	}
	if cfg.All || cfg.Table == 2 {
		results, err := bench.Table2(cfg.Procs, cfg.Elems, cfg.Reps)
		if err != nil {
			return did, err
		}
		fmt.Print(bench.FormatTable2(results))
		did = true
		for _, r := range results {
			row := reportTable2Row{K: r.Case.K, S: r.Case.S, ShapeNs: make(map[string]int64)}
			for sh, d := range r.Times {
				row.ShapeNs[string(sh)] = d.Nanoseconds()
			}
			rep.Table2 = append(rep.Table2, row)
		}
	}
	if cfg.All || cfg.Shapes {
		results, err := bench.ShapeBench(cfg.Procs, cfg.Elems, cfg.Reps)
		if err != nil {
			return did, err
		}
		if did {
			fmt.Println()
		}
		fmt.Print(bench.FormatShapeBench(results))
		did = true
		for _, r := range results {
			row := reportShapeRow{
				Family: r.Family, K: r.K, S: r.S, Elems: r.Elems,
				Kernel:           r.Kernel.String(),
				ShapeNs:          make(map[string]int64),
				ShapeIQRNs:       make(map[string][2]int64),
				SpecializedNs:    r.Specialized.Median.Nanoseconds(),
				SpecializedIQRNs: iqrNs(r.Specialized),
				SpeedupVsShapeB:  r.Speedup(),
			}
			for sh, d := range r.Generic {
				row.ShapeNs[string(sh)] = d.Median.Nanoseconds()
				row.ShapeIQRNs[string(sh)] = iqrNs(d)
			}
			rep.Shapes = append(rep.Shapes, row)
		}
	}
	if cfg.All || cfg.Locality {
		// Two sweeps: the first is all cold misses, the second exposes the
		// layout's reuse structure.
		results, err := bench.LocalityBench(cfg.Procs, cfg.Elems, 2, nil)
		if err != nil {
			return did, err
		}
		if did {
			fmt.Println()
		}
		fmt.Print(bench.FormatLocality(results))
		did = true
		for _, r := range results {
			rep.Locality = append(rep.Locality, reportLocalityRow{
				Family: r.Family, S: r.S, Elems: r.Elems, Sweeps: r.Sweeps,
				Cyclic: toLocalityProfile(r.Cyclic),
				Block:  toLocalityProfile(r.Block),
			})
		}
	}
	if cfg.All || cfg.Cache {
		// Iterations scale with reps; 20 per rep keeps a single run fast
		// while averaging out scheduler noise.
		results, err := bench.CacheBenchmarks(cfg.Procs, 20*cfg.Reps)
		if err != nil {
			return did, err
		}
		if did {
			fmt.Println()
		}
		fmt.Print(bench.FormatCacheBench(results))
		did = true
		for _, r := range results {
			rep.Cache = append(rep.Cache, reportCacheRow{
				Name:                r.Name,
				UncachedNsPerOp:     r.UncachedNsPerOp,
				CachedNsPerOp:       r.CachedNsPerOp,
				UncachedAllocsPerOp: r.UncachedAllocsPerOp,
				CachedAllocsPerOp:   r.CachedAllocsPerOp,
				HitRate:             r.HitRate,
				SteadyMisses:        r.SteadyMisses,
			})
		}
	}
	return did, nil
}
