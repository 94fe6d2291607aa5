// Command benchtables regenerates the paper's evaluation tables and
// figure on the host machine:
//
//	benchtables -table 1              # Table 1 (lattice vs sorting)
//	benchtables -figure 7             # Figure 7 series (Table 1's s = 7 column)
//	benchtables -table 2              # Table 2 (node code shapes)
//	benchtables -table 1 -table 2     # both tables in one run
//	benchtables -cache                # plan-cache cold vs warm families
//	benchtables -shapes               # generic Figure 8 shapes vs specialized kernels
//	benchtables -locality             # block vs cyclic(k) reuse-distance profiles
//	benchtables -all                  # everything
//	benchtables -all -json out.json   # also write machine-readable results
//	benchtables -all -http :8080      # live /metrics, /trace, /healthz during the runs
//
// Times are wall-clock microseconds on the current host, medians over
// -reps with their quartiles; compare shapes and ratios with the paper,
// not absolute values (see EXPERIMENTS.md).
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
	"slices"
	"strconv"

	"repro/internal/bench"
	"repro/internal/reuse"
	"repro/internal/telemetry"
)

func main() {
	var cfg config
	flag.Func("table", "regenerate Table 1 or 2 (repeatable)", func(v string) error {
		n, err := strconv.Atoi(v)
		cfg.Table = append(cfg.Table, n)
		return err
	})
	flag.IntVar(&cfg.Figure, "figure", 0, "regenerate Figure 7")
	flag.BoolVar(&cfg.Cache, "cache", false, "run the plan-cache cold/warm families")
	flag.BoolVar(&cfg.Shapes, "shapes", false, "run the shapes matrix (generic Figure 8 shapes vs specialized kernels)")
	flag.BoolVar(&cfg.Locality, "locality", false, "run the locality matrix (block vs cyclic(k) reuse-distance profiles)")
	flag.BoolVar(&cfg.All, "all", false, "regenerate every table and figure")
	flag.Int64Var(&cfg.Procs, "p", 32, "processor count (the paper uses 32)")
	flag.IntVar(&cfg.Reps, "reps", 5, "measurement repetitions (each timing reports the median and quartiles of its per-rep maxima over processors)")
	flag.Int64Var(&cfg.Elems, "elems", 10000, "assignments per processor for Table 2 and the shapes and locality matrices")
	flag.StringVar(&cfg.JSONPath, "json", "", "write machine-readable results to this file")
	flag.StringVar(&cfg.TracePath, "trace", "", "write a Chrome trace_event JSON of the run to this file")
	flag.BoolVar(&cfg.Metrics, "metrics", false, "dump the telemetry registry as telemetry/v1 JSON after the run")
	flag.StringVar(&cfg.HTTPAddr, "http", "", "serve /metrics (Prometheus), /trace (trace/v1) and /healthz on this address during the runs")
	flag.StringVar(&cfg.PprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.Parse()
	if err := runConfig(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(1)
	}
}

type config struct {
	Table      []int
	Figure     int
	Cache, All bool
	Shapes     bool
	Locality   bool
	Procs      int64
	Reps       int
	Elems      int64
	JSONPath   string
	TracePath  string
	Metrics    bool
	PprofAddr  string
	HTTPAddr   string
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

// Every timing below is a median over the reps; each *_iqr_ns holds the
// matching [first quartile, third quartile].
type reportCell struct {
	Stride       string   `json:"stride"`
	LatticeNs    int64    `json:"lattice_ns"`
	LatticeIQRNs [2]int64 `json:"lattice_iqr_ns"`
	SortingNs    int64    `json:"sorting_ns"`
	SortingIQRNs [2]int64 `json:"sorting_iqr_ns"`
}

type reportRow struct {
	K     int64        `json:"k"`
	Cells []reportCell `json:"cells"`
}

type reportTable2Row struct {
	K          int64               `json:"k"`
	S          int64               `json:"s"`
	ShapeNs    map[string]int64    `json:"shape_ns"`
	ShapeIQRNs map[string][2]int64 `json:"shape_iqr_ns"`
}

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

// shapeNs returns per-shape medians and quartiles in nanoseconds.
func shapeNs(times map[bench.Shape]bench.Spread) (map[string]int64, map[string][2]int64) {
	medians, iqrs := make(map[string]int64), make(map[string][2]int64)
	for sh, sp := range times {
		medians[string(sh)] = sp.Median.Nanoseconds()
		iqrs[string(sh)] = iqrNs(sp)
	}
	return medians, iqrs
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
	Name                string   `json:"name"`
	UncachedNsPerOp     int64    `json:"uncached_ns_per_op"`
	UncachedIQRNs       [2]int64 `json:"uncached_iqr_ns"`
	CachedNsPerOp       int64    `json:"cached_ns_per_op"`
	CachedIQRNs         [2]int64 `json:"cached_iqr_ns"`
	UncachedAllocsPerOp float64  `json:"uncached_allocs_per_op"`
	CachedAllocsPerOp   float64  `json:"cached_allocs_per_op"`
	HitRate             float64  `json:"hit_rate"`
	SteadyMisses        int64    `json:"steady_misses"`
}

func toReportRows(rows []bench.Row) []reportRow {
	out := make([]reportRow, 0, len(rows))
	for _, r := range rows {
		rr := reportRow{K: r.K}
		for _, c := range r.Cells {
			rr.Cells = append(rr.Cells, reportCell{
				Stride:    c.Stride,
				LatticeNs: c.Lattice.Median.Nanoseconds(), LatticeIQRNs: iqrNs(c.Lattice),
				SortingNs: c.Sorting.Median.Nanoseconds(), SortingIQRNs: iqrNs(c.Sorting),
			})
		}
		out = append(out, rr)
	}
	return out
}

func runConfig(cfg config) error {
	// Flag failure modes surface before any benchmark runs: an empty
	// selection, a bad -reps, -p, -elems, -table or -figure value, or an
	// unwritable -json/-trace path exits non-zero immediately, not after
	// minutes of measurement.
	switch {
	case !cfg.All && len(cfg.Table) == 0 && cfg.Figure == 0 && !cfg.Cache && !cfg.Shapes && !cfg.Locality:
		return errors.New("nothing selected: use -table 1, -table 2, -figure 7, -cache, -shapes, -locality or -all")
	case slices.ContainsFunc(cfg.Table, func(t int) bool { return t != 1 && t != 2 }):
		return fmt.Errorf("-table %v: only Tables 1 and 2 are timed", cfg.Table)
	case cfg.Reps < 1:
		return fmt.Errorf("-reps %d: need at least 1 repetition", cfg.Reps)
	case cfg.Procs < 1:
		return fmt.Errorf("-p %d: need at least 1 processor", cfg.Procs)
	case cfg.Elems < 1:
		return fmt.Errorf("-elems %d: need at least 1 assignment per processor", cfg.Elems)
	case cfg.Figure != 0 && cfg.Figure != 7:
		return fmt.Errorf("-figure %d: only Figure 7 is timed", cfg.Figure)
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
	if err := runBenches(cfg, &rep); err != nil {
		if traceFile != nil {
			telemetry.StopTracing()
		}
		cleanup()
		return err
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

// runBenches runs the selected benchmark families, printing each
// section followed by a blank line. A machine failure — a deadlock
// detected on a benchmark machine — arrives as a panic out of
// Machine.Run and is converted to an ordinary error here.
func runBenches(cfg config, rep *report) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("machine failure: %v", r)
		}
	}()
	wantTable1, wantFigure7 := cfg.All || slices.Contains(cfg.Table, 1), cfg.All || cfg.Figure == 7
	if wantTable1 || wantFigure7 {
		// Figure 7 is Table 1's s = 7 column: measure the table once.
		rows, err := bench.Table1(cfg.Procs, cfg.Reps)
		if err != nil {
			return err
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
	}
	if cfg.All || slices.Contains(cfg.Table, 2) {
		results, err := bench.Table2(cfg.Procs, cfg.Elems, cfg.Reps)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatTable2(results))
		fmt.Println()
		for _, r := range results {
			row := reportTable2Row{K: r.Case.K, S: r.Case.S}
			row.ShapeNs, row.ShapeIQRNs = shapeNs(r.Times)
			rep.Table2 = append(rep.Table2, row)
		}
	}
	if cfg.All || cfg.Shapes {
		results, err := bench.ShapeBench(cfg.Procs, cfg.Elems, cfg.Reps)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatShapeBench(results))
		fmt.Println()
		for _, r := range results {
			row := reportShapeRow{
				Family: r.Family, K: r.K, S: r.S, Elems: r.Elems,
				Kernel:           r.Kernel.String(),
				SpecializedNs:    r.Specialized.Median.Nanoseconds(),
				SpecializedIQRNs: iqrNs(r.Specialized),
				SpeedupVsShapeB:  r.Speedup(),
			}
			row.ShapeNs, row.ShapeIQRNs = shapeNs(r.Generic)
			rep.Shapes = append(rep.Shapes, row)
		}
	}
	if cfg.All || cfg.Locality {
		// Two sweeps: the first is all cold misses, the second exposes the
		// layout's reuse structure.
		results, err := bench.LocalityBench(cfg.Procs, cfg.Elems, 2, nil)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatLocality(results))
		fmt.Println()
		for _, r := range results {
			rep.Locality = append(rep.Locality, reportLocalityRow{
				Family: r.Family, S: r.S, Elems: r.Elems, Sweeps: r.Sweeps,
				Cyclic: toLocalityProfile(r.Cyclic),
				Block:  toLocalityProfile(r.Block),
			})
		}
	}
	if cfg.All || cfg.Cache {
		results, err := bench.CacheBenchmarks(cfg.Procs, cfg.Reps)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatCacheBench(results))
		fmt.Println()
		for _, r := range results {
			rep.Cache = append(rep.Cache, reportCacheRow{
				Name:                r.Name,
				UncachedNsPerOp:     r.Uncached.Median.Nanoseconds(),
				UncachedIQRNs:       iqrNs(r.Uncached),
				CachedNsPerOp:       r.Cached.Median.Nanoseconds(),
				CachedIQRNs:         iqrNs(r.Cached),
				UncachedAllocsPerOp: r.UncachedAllocsPerOp,
				CachedAllocsPerOp:   r.CachedAllocsPerOp,
				HitRate:             r.HitRate,
				SteadyMisses:        r.SteadyMisses,
			})
		}
	}
	return nil
}
