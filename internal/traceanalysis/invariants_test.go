package traceanalysis

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/telemetry"
)

// Run a real 4-rank machine with a skewed workload and check that the
// analysis obeys its structural invariants against ground truth from
// the machine's own counters and the process-wide telemetry histograms.
func TestAnalyzeMachineInvariants(t *testing.T) {
	const p = 4
	telemetry.Default().Reset()
	tr := telemetry.StartTracing(p, 1<<15)
	defer telemetry.StopTracing()

	m := machine.MustNew(p)
	m.Run(func(proc *machine.Proc) {
		next := (proc.Rank() + 1) % p
		prev := (proc.Rank() + p - 1) % p
		for i := 0; i < 3; i++ {
			// Rank-skewed compute so one rank clearly straggles.
			time.Sleep(time.Duration(proc.Rank()+1) * 300 * time.Microsecond)
			proc.Send(next, "ring", []float64{float64(i)})
			proc.Recv(prev, "ring")
			proc.Barrier()
		}
		proc.AllReduce(float64(proc.Rank()), machine.Sum)
	})

	trace := &Trace{Ranks: tr.Ranks(), Dropped: tr.Dropped(), Events: tr.Events()}
	if trace.Dropped != 0 {
		t.Fatalf("trace dropped %d events; enlarge the ring", trace.Dropped)
	}
	a, err := Analyze(trace)
	if err != nil {
		t.Fatal(err)
	}

	// Critical path is bounded by the wall clock and dominates every
	// rank's busy time (it tiles the whole wall-clock interval).
	if a.CriticalPath.TotalNs > a.WallClockNs {
		t.Errorf("critical path %d exceeds wall clock %d", a.CriticalPath.TotalNs, a.WallClockNs)
	}
	var maxBusy int64
	for _, b := range a.Breakdown {
		if busy := b.BusyNs(); busy > maxBusy {
			maxBusy = busy
		}
	}
	if a.CriticalPath.TotalNs < maxBusy {
		t.Errorf("critical path %d below max per-rank busy %d", a.CriticalPath.TotalNs, maxBusy)
	}

	// Per-rank decomposition is exact, and idle is the wall-clock
	// remainder.
	var sumRecvWait, sumBarrierWait int64
	for _, b := range a.Breakdown {
		if got := b.ComputeNs + b.SendNs + b.RecvWaitNs + b.BarrierWaitNs; got != b.LifetimeNs {
			t.Errorf("rank %d: components sum to %d, want lifetime %d", b.Rank, got, b.LifetimeNs)
		}
		if b.LifetimeNs+b.IdleNs != a.WallClockNs {
			t.Errorf("rank %d: lifetime %d + idle %d != wall clock %d",
				b.Rank, b.LifetimeNs, b.IdleNs, a.WallClockNs)
		}
		sumRecvWait += b.RecvWaitNs
		sumBarrierWait += b.BarrierWaitNs
	}

	// Comm matrix totals match the machine's own per-rank counters
	// (collective-internal messages included on both sides).
	for r := 0; r < p; r++ {
		st := m.Stats(r)
		var rowSent int64
		for d := 0; d < p; d++ {
			rowSent += a.Comm.Messages[r][d]
		}
		if rowSent != st.MessagesSent {
			t.Errorf("rank %d: comm row sum %d, machine counted %d sends", r, rowSent, st.MessagesSent)
		}
		if a.Breakdown[r].Recvs != st.MessagesReceived {
			t.Errorf("rank %d: breakdown recvs %d, machine counted %d", r, a.Breakdown[r].Recvs, st.MessagesReceived)
		}
		if a.Breakdown[r].Sends != st.MessagesSent {
			t.Errorf("rank %d: breakdown sends %d, machine counted %d", r, a.Breakdown[r].Sends, st.MessagesSent)
		}
	}

	// Wait attribution cross-checks against the wait histograms: the
	// machine observes the identical nanosecond value it stamps on the
	// trace event, so with no drops the sums agree exactly.
	if hist := telemetry.Default().Histogram("machine.recv_wait_ns"); hist.Sum() != sumRecvWait {
		t.Errorf("breakdown recv wait %d, histogram sum %d", sumRecvWait, hist.Sum())
	}
	if hist := telemetry.Default().Histogram("machine.barrier_wait_ns"); hist.Sum() != sumBarrierWait {
		t.Errorf("breakdown barrier wait %d, histogram sum %d", sumBarrierWait, hist.Sum())
	}

	// Every message was delivered, so every recv has its send.
	if a.UnmatchedRecvs != 0 {
		t.Errorf("%d unmatched recvs in a faultless run", a.UnmatchedRecvs)
	}
}

// Both on-disk formats round-trip through Load into the same analysis.
func TestLoadFormats(t *testing.T) {
	tr := telemetry.NewTracer(4, 256)
	for _, e := range syntheticTrace().Events {
		tr.Record(e)
	}

	var v1, chrome bytes.Buffer
	if err := tr.WriteTraceV1(&v1); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}

	fromV1, err := Load(&v1)
	if err != nil {
		t.Fatalf("load trace/v1: %v", err)
	}
	fromChrome, err := Load(&chrome)
	if err != nil {
		t.Fatalf("load Chrome: %v", err)
	}
	for name, trace := range map[string]*Trace{"trace/v1": fromV1, "chrome": fromChrome} {
		if trace.Ranks != 4 || len(trace.Events) != len(syntheticTrace().Events) {
			t.Fatalf("%s: ranks %d events %d, want 4/%d", name, trace.Ranks, len(trace.Events), len(syntheticTrace().Events))
		}
		a, err := Analyze(trace)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.WallClockNs != 11010 || a.CriticalPath.TotalNs != 11010 {
			t.Errorf("%s: wall %d path %d, want 11010/11010", name, a.WallClockNs, a.CriticalPath.TotalNs)
		}
	}

	if _, err := Load(strings.NewReader(`{"schema":"bogus/v9"}`)); err == nil {
		t.Error("no error for unknown schema")
	}
	if _, err := Load(strings.NewReader(`not json`)); err == nil {
		t.Error("no error for non-JSON input")
	}
	if _, err := Load(strings.NewReader(`{"foo":1}`)); err == nil {
		t.Error("no error for unrecognized JSON")
	}
}
