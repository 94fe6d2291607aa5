// Command hpfprof analyzes a trace written by the simulated machine and
// reports where the wall-clock time went: the causal critical path with
// every blocking wait attributed to the peer operation that ended it, a
// per-rank time breakdown, the communication matrix, and load-imbalance
// statistics.
//
// It accepts both trace containers the tools produce and auto-detects
// which one it was given:
//
//	hpfsim -trace trace.json && hpfprof trace.json      # Chrome trace_event JSON
//	curl -s localhost:8080/trace | hpfprof -            # trace/v1 from a live run
//	hpfprof -json trace.json > report.json              # machine-readable (hpfprof/v1)
//	hpfprof -top 3 trace.json                           # shorter tables
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/telemetry"
	"repro/internal/traceanalysis"
)

// ReportSchema tags the -json output so downstream consumers can
// detect format drift.
const ReportSchema = "hpfprof/v1"

// ServeReportSchema tags -serve -json output: the hpfd request-phase
// attribution.
const ServeReportSchema = "hpfprof/serve/v1"

func main() {
	var (
		top      = flag.Int("top", 10, "rows to show in the per-operation tables (0 = all)")
		jsonOut  = flag.Bool("json", false, "emit the full analysis as "+ReportSchema+" JSON instead of text")
		maxSteps = flag.Int("steps", 0, "with -json, cap critical_path.steps at this many entries (0 = all; totals and by_op stay complete)")
		serve    = flag.Bool("serve", false, "treat the input as an hpfd trace/v1 dump and report per-request phase attribution and the coalescing tree")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: hpfprof [flags] <trace-file>\n\nAnalyzes a trace/v1 or Chrome trace_event JSON file (\"-\" reads stdin).\nWith -serve, analyzes an hpfd trace/v1 dump (curl /trace | hpfprof -serve -).\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	var err error
	switch {
	case *serve:
		err = runServe(os.Stdout, flag.Arg(0), *jsonOut)
	default:
		err = run(os.Stdout, os.Stderr, flag.Arg(0), *top, *maxSteps, *jsonOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hpfprof:", err)
		os.Exit(1)
	}
}

// runServe is the hpfd request-attribution path: a trace/v1 dump in,
// per-phase latency and the coalescing tree out.
func runServe(w io.Writer, path string, jsonOut bool) error {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	doc, err := telemetry.ReadTraceV1(r)
	if err != nil {
		return err
	}
	a, err := traceanalysis.AnalyzeServe(doc)
	if err != nil {
		return err
	}
	if !jsonOut {
		return a.WriteText(w)
	}
	out := struct {
		Schema string `json:"schema"`
		*traceanalysis.ServeAnalysis
	}{ServeReportSchema, a}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func run(w, ew io.Writer, path string, top, maxSteps int, jsonOut bool) error {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	tr, err := traceanalysis.Load(r)
	if err != nil {
		return err
	}
	a, err := traceanalysis.Analyze(tr)
	if err != nil {
		return err
	}
	if !jsonOut {
		return a.WriteText(w, top)
	}
	// The text report embeds its truncation warning; the JSON path keeps
	// stdout machine-readable and shouts on stderr instead.
	if a.Dropped > 0 {
		fmt.Fprintf(ew, "hpfprof: WARNING: trace rings overwrote %d events; the analysis only covers the end of the run\n", a.Dropped)
	}
	if maxSteps > 0 && len(a.CriticalPath.Steps) > maxSteps {
		a.CriticalPath.Steps = a.CriticalPath.Steps[:maxSteps]
	}
	doc := struct {
		Schema string `json:"schema"`
		*traceanalysis.Analysis
	}{ReportSchema, a}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
