// CG: conjugate gradients on a cyclic(k)-distributed 1-D Poisson system,
// the flagship pattern for the whole runtime working together:
//
//   - the tridiagonal matvec moves the neighbor values as two
//     shifted-section statements (comm.Copy, then comm.Accumulate), the
//     way jacobi moves its stencil operands, and finishes on local data;
//   - dot products are machine AllReduce collectives;
//   - axpby updates are local sweeps over the packed cyclic(k) storage,
//     while the p = r + beta*p update runs through the cached section
//     runtime (MapSection + comm.Accumulate) — iteration 2..N reuses
//     memoized plans and builds no AM tables;
//   - communication volume and plan-cache hit rates are reported.
//
// Solves A·x = b with A = tridiag(-1, 2, -1) and a known solution, and
// verifies the residual and the recovered x.
//
//	go run ./examples/cg
//	go run ./examples/cg -p 8 -n 512 -trace cg.json
//	go run ./examples/cg -memtrace access.json   # then: hpfmem access.json
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

var (
	procs = flag.Int64("p", 4, "number of processors")
	k     = flag.Int64("k", 8, "block size of the cyclic(k) distribution")
	n     = flag.Int64("n", 256, "unknowns")
	trace = flag.String("trace", "", "write a Chrome trace_event JSON of the run to this file")
	mem   = flag.String("memtrace", "", "write an accesstrace/v1 JSON of every distributed-memory access to this file (analyze with hpfmem)")
)

// matvec computes y = A·x for the tridiagonal Poisson matrix:
// y(0:n-2) = x(1:n-1) and y(1:n-1) += x(0:n-2) sum the neighbors
// through planned communication sets (y(n-1) starts at 0, the
// Dirichlet boundary), then y = 2x - y runs on local memory.
func matvec(m *machine.Machine, y, x *hpf.Array) error {
	n := x.N()
	lower := section.Section{Lo: 0, Hi: n - 2, Stride: 1}
	upper := section.Section{Lo: 1, Hi: n - 1, Stride: 1}
	if err := comm.Copy(m, y, lower, x, upper); err != nil {
		return err
	}
	y.Set(n-1, 0)
	if err := comm.Accumulate(m, y, upper, x, lower, comm.Add); err != nil {
		return err
	}
	axpby(2, x, -1, y)
	return nil
}

// dot computes x·y with per-processor partial sums combined by an
// AllReduce on the machine.
func dot(m *machine.Machine, x, y *hpf.Array) float64 {
	var result float64
	m.Run(func(proc *machine.Proc) {
		me := int64(proc.Rank())
		var part float64
		xm, ym := x.LocalMem(me), y.LocalMem(me)
		for i := range xm {
			part += xm[i] * ym[i]
		}
		total := proc.AllReduce(part, machine.Sum)
		if proc.Rank() == 0 {
			result = total
		}
	})
	return result
}

// axpby computes y = alpha*x + beta*y on local memories.
func axpby(alpha float64, x *hpf.Array, beta float64, y *hpf.Array) {
	for proc := int64(0); proc < x.Layout().P(); proc++ {
		xm, ym := x.LocalMem(proc), y.LocalMem(proc)
		for i := range xm {
			ym[i] = alpha*xm[i] + beta*ym[i]
		}
	}
}

// xpay computes p = r + beta*p through the cached section runtime:
// p(whole) *= beta (AM-table node loops), then p(whole) += r(whole)
// (memoized communication plan). The first call plans; every later
// iteration is pure cache hits.
func xpay(m *machine.Machine, r, p *hpf.Array, beta float64) error {
	whole := section.Section{Lo: 0, Hi: p.N() - 1, Stride: 1}
	if err := p.MapSection(whole, func(v float64) float64 { return beta * v }); err != nil {
		return err
	}
	return comm.Accumulate(m, p, whole, r, whole, comm.Add)
}

func main() {
	flag.Parse()
	procs, k, n := *procs, *k, *n
	if n < 1 {
		log.Fatalf("-n %d: need at least one unknown", n)
	}
	if *trace != "" {
		telemetry.StartTracing(int(procs), 1<<15)
	}
	if *mem != "" {
		// Ring capacity 2^20 records per rank (16 MiB); very long runs keep
		// the most recent window and the hpfmem report warns about the rest.
		telemetry.StartAccessRecording(int(procs), 1<<20)
	}
	layout := dist.MustNew(procs, k)
	m := machine.MustNew(int(procs))

	// Manufactured solution exciting many eigenmodes (a single sine mode
	// would be an eigenvector and converge in one step).
	xstar := hpf.MustNewArray(layout, n)
	for i := int64(0); i < n; i++ {
		t := float64(i+1) / float64(n+1)
		xstar.Set(i, t*(1-t)*math.Exp(2*t)+0.3*math.Sin(13*math.Pi*t))
	}
	b := hpf.MustNewArray(layout, n)
	if err := matvec(m, b, xstar); err != nil {
		log.Fatal(err)
	}

	// CG with x0 = 0: r = b, p = r.
	x := hpf.MustNewArray(layout, n)
	r := hpf.MustNewArray(layout, n)
	p := hpf.MustNewArray(layout, n)
	ap := hpf.MustNewArray(layout, n)
	for proc := int64(0); proc < procs; proc++ {
		copy(r.LocalMem(proc), b.LocalMem(proc))
		copy(p.LocalMem(proc), b.LocalMem(proc))
	}

	rr := dot(m, r, r)
	iters := int64(0)
	for ; iters < n && math.Sqrt(rr) > 1e-10; iters++ {
		if err := matvec(m, ap, p); err != nil {
			log.Fatal(err)
		}
		alpha := rr / dot(m, p, ap)
		axpby(alpha, p, 1, x)
		axpby(-alpha, ap, 1, r)
		rrNew := dot(m, r, r)
		if err := xpay(m, r, p, rrNew/rr); err != nil {
			log.Fatal(err)
		}
		rr = rrNew
	}

	worst := 0.0
	for i := int64(0); i < n; i++ {
		worst = math.Max(worst, math.Abs(x.Get(i)-xstar.Get(i)))
	}
	stats := m.TotalStats()
	fmt.Printf("CG on %d unknowns over %v\n", n, layout)
	fmt.Printf("converged in %d iterations, ||r|| = %.2e\n", iters, math.Sqrt(rr))
	fmt.Printf("max |x - x*| = %.2e\n", worst)
	fmt.Printf("communication: %d messages sent / %d received, %d values exchanged\n",
		stats.MessagesSent, stats.MessagesReceived, stats.ValuesSent)
	if worst > 1e-8 {
		log.Fatal("CG failed to recover the solution")
	}
	fmt.Println("verified: distributed CG recovers the manufactured solution")

	// The registry aggregates every plan cache's counters and the
	// machine's traffic histograms — no hand-rolled reporting.
	fmt.Printf("\ntelemetry registry for this run:\n")
	if err := telemetry.Default().WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}

	if *trace != "" {
		t := telemetry.StopTracing()
		f, err := os.Create(*trace)
		if err != nil {
			log.Fatal(err)
		}
		if err := t.WriteChromeTrace(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\ntrace: wrote %s (analyze with: go run ./cmd/hpfprof %s)\n", *trace, *trace)
	}
	if *mem != "" {
		ar := telemetry.StopAccessRecording()
		f, err := os.Create(*mem)
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
		fmt.Printf("\nmemtrace: wrote %s (analyze with: go run ./cmd/hpfmem %s)\n", *mem, *mem)
	}
}
