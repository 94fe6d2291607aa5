// Command hpfsim runs a small SPMD demonstration on the simulated
// distributed-memory machine: it distributes an array cyclic(k) over p
// processors, performs strided section assignments through the AM-table
// node code, copies a section between two differently-distributed arrays
// using planned communication sets, and verifies the result against a
// sequential reference.
//
//	hpfsim -p 4 -k 8 -n 320
//	hpfsim -trace trace.json      # per-rank Chrome trace (chrome://tracing, Perfetto)
//	hpfsim -metrics               # dump the telemetry registry (telemetry/v1 JSON)
//	hpfsim -http localhost:8080 -linger 30s   # serve /metrics, /trace, /healthz
//	hpfsim -pprof localhost:6060  # serve net/http/pprof during the run
//	hpfsim -faults seed=3,delay=0.2,reorder=0.2   # seeded chaos run
//
// Before the machine starts, the demo workload is rendered as a
// mini-HPF script and run through the hpflint analysis passes; findings
// (for example the cross-distribution copy's HPF010) are printed to
// stderr as a pre-flight report.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"time"

	"repro/internal/analysis"
	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/hpf"
	"repro/internal/machine"
	"repro/internal/section"
	"repro/internal/telemetry"
)

func main() {
	var (
		p        = flag.Int64("p", 4, "number of processors")
		k        = flag.Int64("k", 8, "block size")
		k2       = flag.Int64("k2", 5, "block size of the second distribution")
		n        = flag.Int64("n", 320, "array size")
		trace    = flag.String("trace", "", "write a Chrome trace_event JSON of the run to this file")
		metrics  = flag.Bool("metrics", false, "dump the telemetry registry as telemetry/v1 JSON after the run")
		httpAddr = flag.String("http", "", "serve /metrics (Prometheus), /trace (trace/v1) and /healthz on this address (e.g. localhost:8080)")
		linger   = flag.Duration("linger", 0, "keep the -http server (and the trace) alive this long after the run, for scraping")
		pprof    = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		faults   = flag.String("faults", "", "inject seeded message faults: seed=<n>,drop=<p>,dup=<p>,reorder=<p>,delay=<p>,crash=<rank>@<step>")
	)
	flag.Parse()
	cfg := config{P: *p, K: *k, K2: *k2, N: *n,
		TracePath: *trace, Metrics: *metrics, PprofAddr: *pprof,
		HTTPAddr: *httpAddr, Linger: *linger,
		FaultSpec: *faults}
	if err := runConfig(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "hpfsim:", err)
		os.Exit(1)
	}
}

type config struct {
	P, K, K2, N int64
	TracePath   string
	Metrics     bool
	PprofAddr   string
	HTTPAddr    string
	Linger      time.Duration
	FaultSpec   string

	// afterRun, when set, is called with the -http server's bound
	// address after the workload finishes but before the linger sleep
	// and trace shutdown — the window tests use to scrape endpoints.
	afterRun func(addr string)
}

// traceCapacity retains plenty of events per rank for the demo workload
// while bounding memory for long runs.
const traceCapacity = 1 << 14

func runConfig(cfg config) error {
	// Flag failure modes surface before any work runs: a malformed
	// -faults spec or an unwritable -trace path exits non-zero with a
	// message naming the flag, not a partial run with a surprise at the
	// end.
	var faults *machine.FaultPlan
	if cfg.FaultSpec != "" {
		fp, err := machine.ParseFaultSpec(cfg.FaultSpec)
		if err != nil {
			return fmt.Errorf("invalid -faults spec: %w", err)
		}
		faults = fp
	}
	var traceFile *os.File
	if cfg.TracePath != "" {
		f, err := os.Create(cfg.TracePath)
		if err != nil {
			return fmt.Errorf("cannot write -trace output: %w", err)
		}
		traceFile = f
	}
	// The pprof listener binds synchronously, like -http below: a bad
	// address fails the run up front with an error naming the flag (and
	// ":0" works, with the bound address printed), instead of a goroutine
	// complaining to stderr after the run has started.
	if cfg.PprofAddr != "" {
		ln, err := net.Listen("tcp", cfg.PprofAddr)
		if err != nil {
			if traceFile != nil {
				traceFile.Close()
				os.Remove(cfg.TracePath)
			}
			return fmt.Errorf("cannot serve on -pprof address: %w", err)
		}
		defer ln.Close()
		go http.Serve(ln, nil)
		fmt.Printf("pprof: serving on http://%s/debug/pprof/\n", ln.Addr())
	}
	// The live endpoints bind through net.Listen so ":0" works (the
	// bound address is printed); the run is traced whenever anything can
	// observe it — a -trace file or a /trace scraper.
	var httpLn net.Listener
	if cfg.HTTPAddr != "" {
		ln, err := net.Listen("tcp", cfg.HTTPAddr)
		if err != nil {
			if traceFile != nil {
				traceFile.Close()
				os.Remove(cfg.TracePath)
			}
			return fmt.Errorf("cannot serve on -http address: %w", err)
		}
		httpLn = ln
		defer ln.Close()
		go func() {
			srv := &http.Server{Handler: telemetry.Handler()}
			if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed && !errors.Is(err, net.ErrClosed) {
				fmt.Fprintln(os.Stderr, "hpfsim: http:", err)
			}
		}()
		fmt.Printf("http: serving /metrics, /trace, /healthz on http://%s/\n", ln.Addr())
	}
	if traceFile != nil || httpLn != nil {
		telemetry.StartTracing(int(cfg.P), traceCapacity)
		defer telemetry.StopTracing()
	}
	preflight(cfg, os.Stderr)
	runErr := run(cfg, faults)
	if httpLn != nil && runErr == nil {
		if cfg.afterRun != nil {
			cfg.afterRun(httpLn.Addr().String())
		}
		if cfg.Linger > 0 {
			fmt.Printf("http: lingering %v for scrapers (ctrl-c to stop early)\n", cfg.Linger)
			time.Sleep(cfg.Linger)
		}
	}
	if traceFile != nil {
		t := telemetry.StopTracing()
		if t == nil || runErr != nil {
			traceFile.Close()
			os.Remove(cfg.TracePath)
		} else {
			if err := t.WriteChromeTrace(traceFile); err != nil {
				traceFile.Close()
				return err
			}
			if err := traceFile.Close(); err != nil {
				return err
			}
			fmt.Printf("\ntrace: wrote %s (open in chrome://tracing or https://ui.perfetto.dev)\n", cfg.TracePath)
			fmt.Printf("\nper-rank event summary:\n")
			if err := t.WriteSummary(os.Stdout); err != nil {
				return err
			}
		}
	}
	if cfg.Metrics && runErr == nil {
		fmt.Printf("\ntelemetry registry (%s):\n", telemetry.Schema)
		if err := telemetry.Default().WriteJSON(os.Stdout); err != nil {
			return err
		}
	}
	return runErr
}

// workloadScript renders the demo workload as a mini-HPF script so the
// static analyzer can pre-flight the exact communication pattern the
// machine is about to execute: fill A cyclic(k), strided store, the
// cross-distribution copy into B cyclic(k2), a read of the copied
// section, the redistribute of A onto cyclic(k2), and the final
// verification read.
func workloadScript(p, k, k2, n int64) string {
	sec := section.Section{Lo: 4, Hi: n - 1, Stride: 9}
	dstHi := int64(0)
	if cnt := sec.Count(); cnt > 0 {
		dstHi = 2 * (cnt - 1)
	}
	return fmt.Sprintf(`processors P(%d)
array A(%d) distribute cyclic(%d) onto P
array B(%d) distribute cyclic(%d) onto P
A = 0.0
A(4:%d:9) = -1.0
B(0:%d:2) = A(4:%d:9)
sum B(0:%d:2)
redistribute A cyclic(%d)
sum A(0:%d)
`, p, n, k, n, k2, n-1, dstHi, n-1, dstHi, k2, n-1)
}

// preflight runs the hpflint passes over the rendered workload and
// writes any findings to w. It is advisory: the run proceeds either
// way, and invalid flag combinations still fail in run() with the
// machine's own errors.
func preflight(cfg config, w io.Writer) {
	diags := analysis.AnalyzeSource(workloadScript(cfg.P, cfg.K, cfg.K2, cfg.N))
	if len(diags) == 0 {
		return
	}
	fmt.Fprintln(w, "pre-flight: hpflint findings on the workload script:")
	for _, d := range diags {
		fmt.Fprintf(w, "pre-flight: workload.hpf:%s\n", d)
	}
}

// run executes the demo workload. Machine-level failures — an injected
// crash or a detected deadlock — arrive as
// panics out of m.Run and are converted to ordinary errors here so main
// exits non-zero with the diagnostic instead of dumping a goroutine
// trace.
func run(cfg config, faults *machine.FaultPlan) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("machine failure: %v", r)
		}
	}()
	p, k, k2, n := cfg.P, cfg.K, cfg.K2, cfg.N
	layoutA, err := dist.New(p, k)
	if err != nil {
		return err
	}
	layoutB, err := dist.New(p, k2)
	if err != nil {
		return err
	}
	m := machine.MustNew(int(p))
	if faults != nil {
		m.SetFaults(faults)
		fmt.Printf("faults: armed %s\n", cfg.FaultSpec)
	}

	fmt.Printf("machine: %d processors\n", p)
	fmt.Printf("A: %d elements, %v\n", n, layoutA)
	fmt.Printf("B: %d elements, %v\n", n, layoutB)

	// A(i) = i, then A(l:u:s) = -1 through the AM-table node code.
	a := hpf.MustNewArray(layoutA, n)
	for i := int64(0); i < n; i++ {
		a.Set(i, float64(i))
	}
	sec := section.Section{Lo: 4, Hi: n - 1, Stride: 9}
	if err := a.FillSection(sec, -1); err != nil {
		return err
	}
	fmt.Printf("\nA(%v) = -1 done; A(4) = %v, A(13) = %v, A(14) = %v\n",
		sec, a.Get(4), a.Get(13), a.Get(14))

	// B(0:2(cnt-1):2) = A(4:…:9): cross-distribution section copy.
	b := hpf.MustNewArray(layoutB, n)
	cnt := sec.Count()
	dstSec := section.Section{Lo: 0, Hi: 2 * (cnt - 1), Stride: 2}
	plan, err := comm.NewPlan(layoutB, n, dstSec, layoutA, n, sec)
	if err != nil {
		return err
	}
	fmt.Printf("\ncopy B%v = A%v: %d elements", dstSec, sec, plan.TotalVolume())
	local := int64(0)
	for q := int64(0); q < p; q++ {
		local += plan.Volume(q, q)
	}
	fmt.Printf(" (%d stay on-processor, %d move)\n", local, plan.TotalVolume()-local)
	if err := plan.Execute(m, b, a); err != nil {
		return err
	}
	fmt.Printf("B(0) = %v, B(2) = %v (expect -1 -1)\n", b.Get(0), b.Get(2))

	// Redistribute A onto layoutB and verify contents survive.
	a2, err := hpf.NewArray(layoutB, n)
	if err != nil {
		return err
	}
	whole := section.Section{Lo: 0, Hi: n - 1, Stride: 1}
	if err := comm.Copy(m, a2, whole, a, whole); err != nil {
		return err
	}
	same := true
	ga, ga2 := a.Gather(), a2.Gather()
	for i := range ga {
		if ga[i] != ga2[i] {
			same = false
			break
		}
	}
	fmt.Printf("\nredistribute A: %v -> %v, contents preserved: %v\n",
		layoutA, layoutB, same)
	if !same {
		return fmt.Errorf("redistribution corrupted data")
	}

	// Max reduction across the machine for good measure. The barrier
	// aligns every rank's timeline before the timed collective, and shows
	// up as one barrier event per rank in traces.
	var maxes []float64
	m.Run(func(proc *machine.Proc) {
		proc.Barrier()
		localMax := 0.0
		for _, v := range a.LocalMem(int64(proc.Rank())) {
			if v > localMax {
				localMax = v
			}
		}
		if got := proc.AllReduce(localMax, machine.Max); proc.Rank() == 0 {
			maxes = append(maxes, got)
		}
	})
	fmt.Printf("allreduce max(A) = %v\n", maxes[0])
	if faults != nil {
		fmt.Println(m.FaultSummary())
	}
	return nil
}
