// Jacobi: a 1-D Jacobi relaxation on a cyclic(k)-distributed array —
// the kind of data-parallel loop nest HPF compiles into exactly the
// section assignments this library implements.
//
// Each sweep computes
//
//	new(1 : n-2) = 0.5 * (x(0 : n-3) + x(2 : n-1))
//
// entirely through distributed-section machinery: the two shifted
// operands travel via planned communication sets (comm.Combine), the
// scaling runs through the AM-table node loops (MapSection), and the
// boundary values are pinned. The result after every sweep is verified
// against a sequential reference, and the distributed solve converges to
// the linear profile the boundary conditions dictate.
//
//	go run ./examples/jacobi
//	go run ./examples/jacobi -p 8 -sweeps 1000 -trace jacobi.json
//	go run ./examples/jacobi -sweeps 64 -memtrace access.json  # then: hpfmem access.json
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/hpf"
	"repro/internal/machine"
	"repro/internal/section"
	"repro/internal/telemetry"
)

func main() {
	var (
		procs  = flag.Int64("p", 4, "number of processors")
		k      = flag.Int64("k", 4, "block size of the cyclic(k) distribution")
		n      = flag.Int64("n", 64, "array size")
		sweeps = flag.Int("sweeps", 4096, "relaxation sweeps")
		trace  = flag.String("trace", "", "write a Chrome trace_event JSON of the run to this file")
		mem    = flag.String("memtrace", "", "write an accesstrace/v1 JSON of every distributed-memory access to this file (analyze with hpfmem)")
	)
	flag.Parse()
	run(*procs, *k, *n, *sweeps, *trace, *mem)
}

func run(procs, k, n int64, sweeps int, tracePath, memPath string) {
	if n < 3 {
		log.Fatal("need -n >= 3 for an interior")
	}
	if tracePath != "" {
		telemetry.StartTracing(int(procs), 1<<15)
	}
	if memPath != "" {
		// Ring capacity 2^20 records per rank (16 MiB); very long runs keep
		// the most recent window and the hpfmem report warns about the rest.
		telemetry.StartAccessRecording(int(procs), 1<<20)
	}
	layout := dist.MustNew(procs, k)
	m := machine.MustNew(int(procs))

	x := hpf.MustNewArray(layout, n)
	tmp := hpf.MustNewArray(layout, n)

	// Boundary conditions: x(0) = 0, x(n-1) = 1; interior starts at 0.
	x.Set(n-1, 1)

	interior := section.MustNew(1, n-2, 1)
	left := section.MustNew(0, n-3, 1)
	right := section.MustNew(2, n-1, 1)

	// Sequential reference state.
	ref := make([]float64, n)
	ref[n-1] = 1

	for sweep := 0; sweep < sweeps; sweep++ {
		// tmp(interior) = x(left) + x(right), then scale by 0.5.
		if err := comm.Combine(m, tmp, interior, x, left, x, right, comm.Add); err != nil {
			log.Fatal(err)
		}
		if err := tmp.MapSection(interior, func(v float64) float64 { return 0.5 * v }); err != nil {
			log.Fatal(err)
		}
		// x(interior) = tmp(interior).
		if err := comm.Copy(m, x, interior, tmp, interior); err != nil {
			log.Fatal(err)
		}

		// Advance the sequential reference and spot-check occasionally.
		next := make([]float64, n)
		copy(next, ref)
		for i := int64(1); i < n-1; i++ {
			next[i] = 0.5 * (ref[i-1] + ref[i+1])
		}
		ref = next
		if sweep%1000 == 0 || sweep == sweeps-1 {
			worst := 0.0
			got := x.Gather()
			for i := range got {
				worst = math.Max(worst, math.Abs(got[i]-ref[i]))
			}
			if worst > 1e-12 {
				log.Fatalf("sweep %d: distributed diverges from reference by %g", sweep, worst)
			}
			fmt.Printf("sweep %4d: max |distributed - sequential| = %g, x(n/2) = %.6f\n",
				sweep, worst, x.Get(n/2))
		}
	}

	// After enough sweeps the solution converges to the linear profile
	// i/(n-1) the boundary conditions dictate.
	worst := 0.0
	for i := int64(0); i < n; i++ {
		worst = math.Max(worst, math.Abs(x.Get(i)-float64(i)/float64(n-1)))
	}
	fmt.Printf("\nafter %d sweeps: max deviation from linear profile = %.4f\n", sweeps, worst)
	// Jacobi needs O(n²) sweeps to propagate the boundary values across
	// the domain; only assert convergence when the run was long enough.
	if int64(sweeps) >= n*n {
		if worst > 0.05 {
			log.Fatal("solver failed to converge")
		}
		fmt.Println("verified: distributed Jacobi tracks the sequential solver and converges")
	} else {
		fmt.Printf("(%d sweeps < n² = %d: convergence not asserted, per-sweep verification still exact)\n",
			sweeps, n*n)
	}

	// Every sweep issues the same three array assignments; the runtime
	// plans them once and then serves sweeps 2..N from the caches. The
	// telemetry registry carries every cache's counters (registered by
	// the runtime packages) plus the machine's traffic totals.
	fmt.Printf("\ntelemetry registry for this run:\n")
	if err := telemetry.Default().WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}

	if tracePath != "" {
		t := telemetry.StopTracing()
		f, err := os.Create(tracePath)
		if err != nil {
			log.Fatal(err)
		}
		if err := t.WriteChromeTrace(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\ntrace: wrote %s (analyze with: go run ./cmd/hpfprof %s)\n", tracePath, tracePath)
	}
	if memPath != "" {
		ar := telemetry.StopAccessRecording()
		f, err := os.Create(memPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := ar.WriteJSON(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		if d := ar.Dropped(); d > 0 {
			fmt.Printf("\nmemtrace: ring kept only the last window (%d records overwritten)\n", d)
		}
		fmt.Printf("\nmemtrace: wrote %s (analyze with: go run ./cmd/hpfmem %s)\n", memPath, memPath)
	}
}
