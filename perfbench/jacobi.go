package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/codegen"
	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/hpf"
	"repro/internal/machine"
	"repro/internal/plancache"
	"repro/internal/section"
	"repro/internal/telemetry"
)

// The jacobi workload: the examples/jacobi relaxation on a coarse level
// of a cyclic(16) array over 4 processors. Each sweep updates the
// points 19:n-20:19 from their neighbours ±19,
//
//	tmp(c) = x(c-19) + x(c+19)   comm.Combine
//	tmp(c) = 0.5 * tmp(c)        hpf.MapSection
//	x(c)   = tmp(c)              comm.Copy
//
// With s = 19 > k = 16 every rank's AM table walks through the generic
// Figure 8(b) kernel, and the comm pack/unpack runs on address lists.
//
// An op is a relaxation of shortSweeps sweeps, except one op in each
// round, at a seeded position, which relaxes for longSweeps. Long ops
// are 5 % of all ops, so p99 lies inside the long class and p50 inside
// the short one. With every op of one length, p99 fell among the ops a
// host stall had hit and moved by up to 30 % between runs.

const (
	jacobiProcs  = 4
	jacobiBlock  = 16
	jacobiStride = 19
	// jacobiPoints is the number of coarse points a sweep updates.
	jacobiPoints = 8192
	// shortSweeps and longSweeps are the sweeps of a short and a long op.
	shortSweeps = 16
	longSweeps  = 64
	// opsPerRound ops make one round, one of them long.
	opsPerRound    = 20
	sweepsPerRound = (opsPerRound-1)*shortSweeps + longSweeps
	// emptyRuns is how many empty machine.Run calls the traced run times.
	emptyRuns = 2000
)

type jacobi struct {
	m                       *machine.Machine
	x, tmp                  *hpf.Array
	interior, left, right   section.Section
	init                    []float64 // x before the first sweep
	long                    int       // index of each round's long op
	sweeps                  int       // sweeps applied to x so far
	listPairs, stridedPairs int64     // comm pair compilations during set-up

	// Traced rounds: per-call times (ms) and per-op remainders.
	combine, mapped, copied []float64
	unattributed            []float64
	ledger                  ledger
	invocations, generic    int64 // codegen kernel calls over all rounds
	messages, values        int64 // machine traffic over all rounds
	roundSweeps             int64 // sweeps over all rounds
}

func half(v float64) float64 { return 0.5 * v }

var telCounter = telemetry.Default().Counter

// newJacobi builds the workload from empty plan caches: machine, arrays,
// seeded initial values and one sweep, which plans every section and
// communication pattern.
func newJacobi(seed int64) (*jacobi, error) {
	plancache.ResetTables()
	hpf.ResetSectionPlanCache()
	comm.ResetPlanCache()
	n := int64(jacobiStride*(jacobiPoints+1) + 1)
	layout, err := dist.New(jacobiProcs, jacobiBlock)
	if err != nil {
		return nil, err
	}
	m, err := machine.New(jacobiProcs)
	if err != nil {
		return nil, err
	}
	j := &jacobi{m: m, init: make([]float64, n)}
	if j.x, err = hpf.NewArray(layout, n); err != nil {
		return nil, err
	}
	if j.tmp, err = hpf.NewArray(layout, n); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range j.init {
		j.init[i] = rng.Float64()
		j.x.Set(int64(i), j.init[i])
	}
	j.long = rng.Intn(opsPerRound)
	j.interior = section.MustNew(jacobiStride, n-1-jacobiStride, jacobiStride)
	j.left = section.MustNew(0, n-1-2*jacobiStride, jacobiStride)
	j.right = section.MustNew(2*jacobiStride, n-1, jacobiStride)
	list, strided := telCounter("comm.exec_pairs_list").Value(), telCounter("comm.exec_pairs_strided").Value()
	if err := j.sweep(nil); err != nil {
		return nil, err
	}
	j.listPairs = telCounter("comm.exec_pairs_list").Value() - list
	j.stridedPairs = telCounter("comm.exec_pairs_strided").Value() - strided
	return j, nil
}

// sweepTimes receives the duration of each call of a traced sweep.
type sweepTimes struct{ combine, mapped, copied time.Duration }

func (j *jacobi) sweep(t *sweepTimes) error {
	t0 := time.Now()
	if err := comm.Combine(j.m, j.tmp, j.interior, j.x, j.left, j.x, j.right, comm.Add); err != nil {
		return err
	}
	t1 := time.Now()
	if err := j.tmp.MapSection(j.interior, half); err != nil {
		return err
	}
	t2 := time.Now()
	if err := comm.Copy(j.m, j.x, j.interior, j.tmp, j.interior); err != nil {
		return err
	}
	if t != nil {
		t.combine += t1.Sub(t0)
		t.mapped += t2.Sub(t1)
		t.copied += time.Since(t2)
	}
	j.sweeps++
	return nil
}

func (j *jacobi) round(traced bool) (roundResult, error) {
	inv0, gen0 := kernelInvocations()
	msg0, val0 := telCounter("machine.messages_sent").Value(), telCounter("machine.values_sent").Value()
	if traced {
		telemetry.StartTracing(jacobiProcs, traceCapacity)
	}
	lat := make([]float64, 0, opsPerRound)
	start := time.Now()
	for op := 0; op < opsPerRound; op++ {
		sweeps := shortSweeps
		if op == j.long {
			sweeps = longSweeps
		}
		var st sweepTimes
		var tp *sweepTimes
		if traced {
			tp = &st
		}
		t0 := time.Now()
		for s := 0; s < sweeps; s++ {
			if err := j.sweep(tp); err != nil {
				return roundResult{}, err
			}
		}
		d := time.Since(t0)
		lat = append(lat, ms(d.Nanoseconds()))
		if traced {
			j.combine = append(j.combine, ms(st.combine.Nanoseconds())/float64(sweeps))
			j.mapped = append(j.mapped, ms(st.mapped.Nanoseconds())/float64(sweeps))
			j.copied = append(j.copied, ms(st.copied.Nanoseconds())/float64(sweeps))
			covered := st.combine + st.mapped + st.copied
			j.unattributed = append(j.unattributed, ms((d - covered).Nanoseconds()))
			j.ledger.add(covered.Nanoseconds(), d.Nanoseconds())
		}
	}
	busy := time.Since(start)
	if traced {
		if d := telemetry.StopTracing().Dropped(); d > 0 {
			return roundResult{}, fmt.Errorf("tracer dropped %d events; raise the ring capacity", d)
		}
	}
	inv1, gen1 := kernelInvocations()
	j.invocations += inv1 - inv0
	j.generic += gen1 - gen0
	j.messages += telCounter("machine.messages_sent").Value() - msg0
	j.values += telCounter("machine.values_sent").Value() - val0
	j.roundSweeps += sweepsPerRound
	return roundResult{lat: lat, busy: busy}, nil
}

// kernelInvocations returns the codegen kernel calls so far, in total
// and of the generic Figure 8(b) kernel.
func kernelInvocations() (total, generic int64) {
	for kind := codegen.KindNone; kind <= codegen.KindGeneric; kind++ {
		total += telCounter("codegen.kernel_invocations." + kind.String()).Value()
	}
	return total, telCounter("codegen.kernel_invocations." + codegen.KindGeneric.String()).Value()
}

// verify replays every sweep applied to x on a sequential copy of the
// initial array and compares all n elements exactly: the coarse points
// must match the reference and every other point must be untouched.
func (j *jacobi) verify() (int64, error) {
	n := len(j.init)
	ref := append([]float64(nil), j.init...)
	next := append([]float64(nil), j.init...)
	for s := 0; s < j.sweeps; s++ {
		for c := jacobiStride; c < n-jacobiStride; c += jacobiStride {
			next[c] = 0.5 * (ref[c-jacobiStride] + ref[c+jacobiStride])
		}
		ref, next = next, ref
	}
	got := j.x.Gather()
	var bad int64
	first := -1
	for i := range got {
		if got[i] != ref[i] {
			if first < 0 {
				first = i
			}
			bad++
		}
	}
	if bad > 0 {
		return 1, fmt.Errorf("after %d sweeps %d of %d elements differ from the sequential reference; first x(%d) = %g, want %g",
			j.sweeps, bad, n, first, got[first], ref[first])
	}
	return 0, nil
}

func (j *jacobi) layers(m metrics) error {
	emptyRun := make([]float64, emptyRuns) // µs
	for i := range emptyRun {
		t0 := time.Now()
		j.m.Run(func(*machine.Proc) {})
		emptyRun[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	for name, xs := range map[string][]float64{
		"hpf.map_ms_p50":             j.mapped,
		"comm.combine_ms_p50":        j.combine,
		"comm.copy_ms_p50":           j.copied,
		"machine.run_empty_us_p50":   emptyRun,
		"ledger.unattributed_ms_p50": j.unattributed,
	} {
		v, err := layerP50(xs)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		m.set(name, v)
	}
	m.set("ledger.coverage_pct", j.ledger.coveragePct())
	sweeps := float64(j.roundSweeps)
	m.set("codegen.kernel_invocations_per_sweep", float64(j.invocations)/sweeps)
	if j.invocations > 0 {
		m.set("codegen.generic_share", float64(j.generic)/float64(j.invocations))
	}
	m.set("machine.messages_per_sweep", float64(j.messages)/sweeps)
	m.set("comm.values_per_sweep", float64(j.values)/sweeps)
	if pairs := j.listPairs + j.stridedPairs; pairs > 0 {
		m.set("comm.list_pair_share", float64(j.listPairs)/float64(pairs))
	}
	return checkLedger(m)
}

func (j *jacobi) close() {}
