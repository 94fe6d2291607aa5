// CG: conjugate gradients on a cyclic(k)-distributed 1-D Poisson system,
// the flagship pattern for the whole runtime working together:
//
//   - the tridiagonal matvec runs on LOCAL data only, using halo
//     exchange for the block-boundary neighbors (Fortran D overlap
//     areas, the paper's reference [10]);
//   - dot products are machine AllReduce collectives;
//   - axpy updates are local sweeps over the packed cyclic(k) storage,
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
	"repro/internal/halo"
	"repro/internal/hpf"
	"repro/internal/machine"
	"repro/internal/section"
	"repro/internal/telemetry"
)

var (
	procs = flag.Int64("p", 4, "number of processors")
	k     = flag.Int64("k", 8, "block size of the cyclic(k) distribution")
	// n must stay a multiple of p*k so halos cover whole blocks.
	n     = flag.Int64("n", 256, "unknowns (must be a multiple of p*k)")
	trace = flag.String("trace", "", "write a Chrome trace_event JSON of the run to this file")
	mem   = flag.String("memtrace", "", "write an accesstrace/v1 JSON of every distributed-memory access to this file (analyze with hpfmem)")
)

// matvec computes y = A·p for the tridiagonal Poisson matrix, using one
// halo exchange and then only local memory.
func matvec(m *machine.Machine, y, p *hpf.Array) error {
	h, err := halo.Exchange(m, p, 1, 0) // pad 0 = Dirichlet boundary
	if err != nil {
		return err
	}
	layout := p.Layout()
	kk := layout.K()
	for proc := int64(0); proc < layout.P(); proc++ {
		src := p.LocalMem(proc)
		dst := y.LocalMem(proc)
		for row := int64(0); row < h.Rows(); row++ {
			base := row * kk
			for off := int64(0); off < kk; off++ {
				var left, right float64
				if off > 0 {
					left = src[base+off-1]
				} else {
					left = h.Left(proc, row, 1)
				}
				if off < kk-1 {
					right = src[base+off+1]
				} else {
					right = h.Right(proc, row, 1)
				}
				dst[base+off] = 2*src[base+off] - left - right
			}
		}
	}
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

// axpy computes y += alpha*x on local memories.
func axpy(alpha float64, x, y *hpf.Array) {
	for proc := int64(0); proc < x.Layout().P(); proc++ {
		xm, ym := x.LocalMem(proc), y.LocalMem(proc)
		for i := range xm {
			ym[i] += alpha * xm[i]
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
	if n%(procs*k) != 0 {
		log.Fatalf("-n %d must be a multiple of p*k = %d", n, procs*k)
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
		axpy(alpha, p, x)
		axpy(-alpha, ap, r)
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
