// Command perfbench is the repository benchmark. It runs one workload
// in-process for a fixed time and prints its end-to-end metrics (or,
// with -trace 1, its per-layer metrics) as the last line of standard
// output:
//
//	bash perfbench/run.sh --workload plan-cold --seed 1 --seconds 10 --trace 0
//
// Workloads: plan-cold (every hpfd request compiles a new plan),
// plan-warm (every hpfd request is a cache hit) and jacobi (a strided
// SPMD relaxation). See README.md for what each metric measures.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// bench is one workload instance, as its set-up leaves it.
type bench interface {
	// round runs one closed-loop round of ops. Traced rounds run with
	// the telemetry tracer on and feed the per-layer record.
	round(traced bool) (roundResult, error)
	// verify runs the output oracle after the timed loop and returns how
	// many checked outputs were wrong.
	verify() (int64, error)
	// layers writes the workload's per-layer metrics.
	layers(m metrics) error
	close()
}

type roundResult struct {
	lat    []float64 // ms, one per op
	failed int64
	busy   time.Duration
}

var workloads = map[string]func(seed int64) (bench, error){
	"plan-cold": func(seed int64) (bench, error) { return newPlanCold(seed) },
	"plan-warm": func(seed int64) (bench, error) { return newPlanWarm(seed) },
	"jacobi":    func(seed int64) (bench, error) { return newJacobi(seed) },
}

const (
	// setupReps is how many times a run builds its workload from
	// scratch; setup_s is the median.
	setupReps = 9
	// warmup is the untimed running time before measuring.
	warmup = time.Second
)

// endToEnd and perLayer name every metric the benchmark reports, with
// its unit, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"throughput_ops_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"serve.request_ms_p50", "ms"},
	{"serve.client_overhead_ms_p50", "ms"},
	{"serve.unattributed_ms_p50", "ms"},
	{"serve.build_ms_p50", "ms"},
	{"serve.tables_ms_p50", "ms"},
	{"serve.select_ms_p50", "ms"},
	{"serve.encode_ms_p50", "ms"},
	{"serve.body_bytes_mean", "bytes"},
	{"serve.hit_ratio", "ratio"},
	{"plancache.table_builds_per_request", "count"},
	{"core.single_cycle_share", "ratio"},
	{"hpf.map_ms_p50", "ms"},
	{"codegen.kernel_invocations_per_sweep", "count"},
	{"codegen.generic_share", "ratio"},
	{"comm.combine_ms_p50", "ms"},
	{"comm.copy_ms_p50", "ms"},
	{"comm.values_per_sweep", "count"},
	{"comm.list_pair_share", "ratio"},
	{"machine.run_empty_us_p50", "us"},
	{"machine.messages_per_sweep", "count"},
	{"go.allocs_per_op", "count"},
	{"go.gc_per_kop", "count"},
	{"trace_overhead_pct", "%"},
	{"ledger.coverage_pct", "%"},
	{"ledger.unattributed_ms_p50", "ms"},
}

type metricDef struct{ name, unit string }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics is the reported set. It holds exactly the names of one of
// the lists above; set refuses any other name.
type metrics map[string]metric

func newMetrics(defs []metricDef) metrics {
	m := metrics{}
	for _, d := range defs {
		m[d.name] = metric{Unit: d.unit}
	}
	return m
}

func (m metrics) set(name string, v float64) {
	mt, ok := m[name]
	if !ok {
		panic("perfbench: unknown metric " + name)
	}
	mt.Value = v
	m[name] = mt
}

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "plan-cold, plan-warm or jacobi")
	seed := flag.Int64("seed", 1, "seed of the workload's inputs")
	seconds := flag.Float64("seconds", 10, "measured running time")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.Parse()
	mk, ok := workloads[*workload]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload plan-cold|plan-warm|jacobi --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	res, err := run(mk, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if err := report(os.Stdout, *workload, *seed, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: writing the result: %v\n", *workload, err)
		os.Exit(1)
	}
}

// run builds the workload setupReps times, warms it up, measures it for
// d, runs the oracle and computes the metrics. A traced run alternates
// untraced and traced rounds: the untraced ones give the baseline for
// trace_overhead_pct and the allocation counts.
func run(mk func(int64) (bench, error), seed int64, d time.Duration, traced bool) (*result, error) {
	var setups []float64
	var b bench
	for i := 0; i < setupReps; i++ {
		if b != nil {
			b.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if b, err = mk(seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer b.close()
	for start := time.Now(); time.Since(start) < warmup; {
		rr, err := b.round(false)
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		if rr.failed > 0 {
			return nil, fmt.Errorf("warm-up: %d ops failed", rr.failed)
		}
	}

	// Latencies stay in per-round chunks until peak RSS is read, so the
	// benchmark's own sample storage never doubles in place.
	var plain, withTrace [][]float64
	var nPlain int
	var ops, failed int64
	var busy time.Duration
	var allocs, gcs uint64
	runtime.GC()
	// A traced run has at least one round of each kind; an end-to-end run
	// goes on past d until the p99 guard can be met.
	for r, start := 0, time.Now(); time.Since(start) < d || (traced && r < 2) || (!traced && nPlain < minOps); r++ {
		tr := traced && r%2 == 1
		var before runtime.MemStats
		if traced && !tr {
			runtime.ReadMemStats(&before)
		}
		rr, err := b.round(tr)
		if err != nil {
			return nil, err
		}
		if traced && !tr {
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			allocs += after.Mallocs - before.Mallocs
			gcs += uint64(after.NumGC - before.NumGC)
		}
		if tr {
			withTrace = append(withTrace, rr.lat)
		} else {
			plain = append(plain, rr.lat)
			nPlain += len(rr.lat)
			busy += rr.busy
		}
		ops += int64(len(rr.lat))
		failed += rr.failed
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	wrong, verr := b.verify()
	if verr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: output oracle: %v\n", verr)
	}
	res := &result{Attempted: ops, Failed: failed + wrong}
	res.Correct = res.Failed == 0

	if !traced {
		res.Metrics = newMetrics(endToEnd)
		s := merged(plain)
		p50, err := percentile(s, 0.50)
		if err != nil {
			return nil, fmt.Errorf("latency_p50_ms: %w", err)
		}
		p99, err := percentile(s, 0.99)
		if err != nil {
			return nil, fmt.Errorf("latency_p99_ms: %w", err)
		}
		res.Metrics.set("setup_s", median(setups))
		res.Metrics.set("latency_p50_ms", p50)
		res.Metrics.set("latency_p99_ms", p99)
		res.Metrics.set("throughput_ops_s", float64(nPlain)/busy.Seconds())
		res.Metrics.set("peak_rss_mb", rss)
		return res, nil
	}

	res.Metrics = newMetrics(perLayer)
	if err := b.layers(res.Metrics); err != nil {
		return nil, err
	}
	base, err := percentile(merged(plain), 0.50)
	if err != nil {
		return nil, fmt.Errorf("untraced p50: %w", err)
	}
	withP50, err := percentile(merged(withTrace), 0.50)
	if err != nil {
		return nil, fmt.Errorf("traced p50: %w", err)
	}
	res.Metrics.set("trace_overhead_pct", 100*(withP50-base)/base)
	res.Metrics.set("go.allocs_per_op", float64(allocs)/float64(nPlain))
	res.Metrics.set("go.gc_per_kop", 1000*float64(gcs)/float64(nPlain))
	return res, nil
}

// minOps is the fewest untraced ops an end-to-end run measures: p99
// needs 1000 for ten samples beyond it.
const minOps = 1100

// ledger sums, over every traced op, the time the timed layers account
// for and the op's whole time.
type ledger struct{ coveredNs, totalNs int64 }

func (l *ledger) add(coveredNs, totalNs int64) {
	l.coveredNs += coveredNs
	l.totalNs += totalNs
}

// coveragePct is the time-weighted share of op time the layers cover.
func (l ledger) coveragePct() float64 {
	if l.totalNs == 0 {
		return 0
	}
	return 100 * float64(l.coveredNs) / float64(l.totalNs)
}

// ledgerFloor is the least share of op time, in percent, that the
// timed layers must account for in a traced run.
const ledgerFloor = 95.0

// checkLedger fails a traced run whose layers leave more than 5 % of
// the traced ops' time unattributed.
func checkLedger(m metrics) error {
	if cov := m["ledger.coverage_pct"].Value; cov < ledgerFloor {
		return fmt.Errorf("ledger: timed layers cover %.1f %% of op time, below %.0f %%", cov, ledgerFloor)
	}
	return nil
}

// report prints the run's stamp and every metric by name with its unit,
// then the result as one JSON line, which is the last line of output.
func report(w io.Writer, workload string, seed int64, res *result) error {
	out := bufio.NewWriter(w)
	fmt.Fprintf(out, "perfbench %s: seed=%d GOMAXPROCS=%d nproc=%d cpu=%q go=%s\n",
		workload, seed, runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), runtime.Version())
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(out, "  %-38s %14.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	fmt.Fprintf(out, "  %-38s %14.6g ratio (%d of %d ops failed or were wrong)\n", "error_rate",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	out.Write(line)
	out.WriteString("\n")
	return out.Flush()
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or
// "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return "unknown"
}

// ms converts nanoseconds to milliseconds.
func ms(ns int64) float64 { return float64(ns) / 1e6 }
