package machine

import (
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
)

func TestParseFaultSpec(t *testing.T) {
	fp, err := ParseFaultSpec("seed=42,drop=0.01,dup=0.02,delay=0.05,reorder=0.1,crash=3@100")
	if err != nil {
		t.Fatal(err)
	}
	want := &FaultPlan{
		Seed: 42, Drop: 0.01, Dup: 0.02, Delay: 0.05, Reorder: 0.1,
		CrashRank: 3, CrashStep: 100,
	}
	if !reflect.DeepEqual(fp, want) {
		t.Errorf("parsed %+v, want %+v", fp, want)
	}
	if fp, err := ParseFaultSpec(""); err != nil || fp.CrashRank != -1 {
		t.Errorf("empty spec should give a no-op plan, got %+v, %v", fp, err)
	}
	for _, bad := range []string{
		"drop",             // not key=value
		"drop=2",           // probability out of range
		"drop=0.6,dup=0.6", // probabilities sum > 1
		"drop=NaN",         // NaN fails every comparison
		"delay=NaN",        // NaN delay probability
		"delay=0.1:2ms",    // a delay is not a duration
		"crash=x",          // malformed rank
		"crash=1@-2",       // negative step
		"jitter=0.1",       // unknown key
	} {
		if _, err := ParseFaultSpec(bad); err == nil {
			t.Errorf("spec %q should fail to parse", bad)
		}
	}
}

// chaosBody is a fixed message pattern: every rank sends `rounds`
// messages to the next rank. Fault decisions are drawn on the send
// side, so the body receives nothing: a dropped message can never
// leave a receiver parked, and what arrives stays in the mailbox.
func chaosBody(rounds int) func(p *Proc) {
	return func(p *Proc) {
		next := (p.Rank() + 1) % p.NProcs()
		for i := 0; i < rounds; i++ {
			p.Send(next, "chaos", []float64{float64(i)})
		}
	}
}

// TestFaultPlanDeterministic asserts the reproducibility contract: the
// same seeded plan over the same SPMD body injects the identical event
// sequence on every run, on fresh machines and on reused ones.
func TestFaultPlanDeterministic(t *testing.T) {
	plan := &FaultPlan{Seed: 7, Drop: 0.1, Dup: 0.2, Delay: 0.1, Reorder: 0.2, CrashRank: -1}
	runOnce := func() []FaultEvent {
		m := MustNew(4)
		m.SetFaults(plan)
		m.Run(chaosBody(40))
		return m.FaultEvents()
	}
	first := runOnce()
	if len(first) == 0 {
		t.Fatal("plan injected no faults; probabilities too low for the workload")
	}
	for trial := 0; trial < 3; trial++ {
		if got := runOnce(); !reflect.DeepEqual(got, first) {
			t.Fatalf("trial %d diverged:\nfirst %v\ngot   %v", trial, first, got)
		}
	}
	// A reused machine resets the decision streams per Run.
	m := MustNew(4)
	m.SetFaults(plan)
	m.Run(chaosBody(40))
	m.Run(chaosBody(40))
	if got := m.FaultEvents(); !reflect.DeepEqual(got, first) {
		t.Fatalf("second Run on one machine diverged:\nfirst %v\ngot   %v", first, got)
	}
}

// TestDroppedSendBecomesStructuredFailure: with every message dropped,
// the receive side deadlocks; the scheduler must convert the hang into a
// failure naming each rank's wait site and count the drops.
func TestDroppedSendBecomesStructuredFailure(t *testing.T) {
	m := MustNew(2)
	m.SetFaults(&FaultPlan{Seed: 1, Drop: 1, CrashRank: -1})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected deadlock panic")
		}
		msg := r.(string)
		for _, want := range []string{
			"deadlock",
			`rank 0 parked in Recv(from=1, tag="pong")`,
			`rank 1 parked in Recv(from=0, tag="ping")`,
		} {
			if !strings.Contains(msg, want) {
				t.Errorf("diagnostic %q missing %q", msg, want)
			}
		}
		if events := m.FaultEvents(); len(events) == 0 || events[0].Kind != FaultDrop {
			t.Errorf("drop events not recorded: %v", events)
		}
	}()
	m.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, "ping", nil)
			p.Recv(1, "pong")
		} else {
			p.Recv(0, "ping")
			p.Send(0, "pong", nil)
		}
	})
}

// TestCrashRankAtStep: the plan's crash fires at the rank's N-th
// machine op, poisons every parked peer, and is reported as the root
// cause.
func TestCrashRankAtStep(t *testing.T) {
	m := MustNew(3)
	m.SetFaults(&FaultPlan{Seed: 1, CrashRank: 1, CrashStep: 2})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected crash panic")
		}
		msg := r.(string)
		if !strings.Contains(msg, "processor 1") ||
			!strings.Contains(msg, "rank 1 crashed at step 2") {
			t.Errorf("panic %q should name the crashed rank and step", msg)
		}
	}()
	m.Run(func(p *Proc) {
		next := (p.Rank() + 1) % 3
		prev := (p.Rank() + 2) % 3
		// Ops per rank: send (0), recv (1), send (2) — rank 1 dies at its
		// second send while its peers sit in Recv.
		p.Send(next, "a", nil)
		p.Recv(prev, "a")
		p.Send(next, "b", nil)
		p.Recv(prev, "b")
	})
}

// TestDuplicateAndReorderDelivery: duplicated messages arrive with
// deep-copied payloads, reordered ones jump the queue; tag matching
// still routes everything and nothing hangs.
func TestDuplicateAndReorderDelivery(t *testing.T) {
	m := MustNew(2)
	m.SetFaults(&FaultPlan{Seed: 5, Dup: 1, CrashRank: -1})
	var extras atomic.Int64
	m.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, "d", []float64{42})
		} else {
			a := p.Recv(0, "d")
			b := p.Recv(0, "d")
			extras.Add(1)
			if a.Data[0] != 42 || b.Data[0] != 42 {
				t.Errorf("duplicate corrupted: %v/%v", a.Data, b.Data)
			}
			// The duplicate must own a fresh backing array: recycling one
			// copy's buffer (machine.PutBuf) must not clobber the other.
			if &a.Data[0] == &b.Data[0] {
				t.Error("duplicate aliases the original payload")
			}
		}
	})
	if extras.Load() != 1 {
		t.Fatal("duplicate never delivered")
	}

	m2 := MustNew(2)
	m2.SetFaults(&FaultPlan{Seed: 5, Reorder: 1, CrashRank: -1})
	m2.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, "one", []float64{1})
			p.Send(1, "two", []float64{2})
		} else {
			// Tag matching routes both messages regardless of queue order.
			if msg := p.Recv(0, "two"); msg.Data[0] != 2 {
				t.Errorf("reordered payload corrupted: %v", msg.Data)
			}
			if msg := p.Recv(0, "one"); msg.Data[0] != 1 {
				t.Errorf("reordered payload corrupted: %v", msg.Data)
			}
		}
	})
	events := m2.FaultEvents()
	if len(events) != 2 || events[0].Kind != FaultReorder {
		t.Errorf("expected two reorder events, got %v", events)
	}
}

// TestDelayedMessageDoesNotTripWatchdog: while a delayed message is
// held every rank may be parked; the scheduler must deliver it instead
// of calling that a deadlock.
func TestDelayedMessageDoesNotTripWatchdog(t *testing.T) {
	m := MustNew(2)
	m.SetFaults(&FaultPlan{Seed: 1, Delay: 1, CrashRank: -1})
	m.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, "slow", []float64{9})
			p.Recv(1, "ack")
		} else {
			if msg := p.Recv(0, "slow"); msg.Data[0] != 9 {
				t.Errorf("delayed payload corrupted: %v", msg.Data)
			}
			p.Send(0, "ack", nil)
		}
	})
	if s := m.FaultSummary(); !strings.Contains(s, "delay=") {
		t.Errorf("summary %q should count delays", s)
	}
}
