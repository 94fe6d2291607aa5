// Command hpfmem analyzes a memory access trace recorded by the
// telemetry access recorder and reports the locality structure the
// paper's address sequences induce: exact per-rank reuse-distance
// histograms (Olken's splay-tree algorithm), miss-rate estimates
// for a range of LRU cache sizes, and per-operation profiles keyed by
// the kernel kind that generated each address stream.
//
//	jacobi -memtrace access.json && hpfmem access.json   # per-rank tables
//	hpfmem -json access.json > locality.json             # machine-readable (hpfmem/v1)
//	hpfmem -caches 1024,65536 access.json                # custom LRU sizes
//
// The input is an accesstrace/v1 JSON document; "-" reads stdin.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/reuse"
	"repro/internal/telemetry"
)

// ReportSchema tags the -json output so downstream consumers can detect
// format drift.
const ReportSchema = "hpfmem/v1"

func main() {
	var (
		jsonOut = flag.Bool("json", false, "emit the analysis as "+ReportSchema+" JSON instead of text")
		caches  = flag.String("caches", "", "comma-separated LRU cache sizes in elements (default 512,4096,32768,262144)")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: hpfmem [flags] <access-trace>\n\nAnalyzes an accesstrace/v1 JSON file (\"-\" reads stdin).\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(os.Stdout, os.Stderr, flag.Arg(0), *caches, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "hpfmem:", err)
		os.Exit(1)
	}
}

// parseCaches parses the -caches list; empty means package defaults.
func parseCaches(s string) ([]int64, error) {
	if s == "" {
		return nil, nil
	}
	var out []int64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("invalid cache size %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func run(w, ew io.Writer, path, caches string, jsonOut bool) error {
	sizes, err := parseCaches(caches)
	if err != nil {
		return err
	}
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	doc, err := telemetry.ReadAccessTrace(r)
	if err != nil {
		return err
	}
	rep := reuse.BuildReport(doc, reuse.Options{CacheSizes: sizes})
	if !jsonOut {
		return rep.WriteText(w)
	}
	// Text mode embeds its truncation warning; JSON keeps stdout
	// machine-readable and shouts on stderr instead.
	if rep.Dropped > 0 {
		fmt.Fprintf(ew, "hpfmem: WARNING: access rings overwrote %d records; distances near the start of the run are missing or inflated\n", rep.Dropped)
	}
	out := struct {
		Schema string `json:"schema"`
		*reuse.Report
	}{ReportSchema, rep}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
