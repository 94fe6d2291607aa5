package machine

import (
	"strings"
	"testing"
	"time"
)

// Chaos tests: every collective runs under a seeded fault plan. Delay
// and reorder faults must be invisible to collective semantics (tag
// matching plus the collectives' own data dependencies absorb them);
// drop faults must surface as a structured deadlock failure, never a
// hang. CI runs these with -race and a hard timeout (chaos-smoke job).

// runAllCollectives exercises every collective with verifiable values.
//
// The barriers between phases are load-bearing: the machine's
// collectives reuse fixed tags ("__reduce", …), so two back-to-back
// collectives are only race-free while messages from the same sender
// and tag arrive in send order. Delay and reorder faults deliberately
// break that FIFO guarantee, and the chaos runs flush out any phase
// that leans on it — exactly the bug class this suite exists to catch.
// A barrier drains each phase before the next may send.
func runAllCollectives(t *testing.T, m *Machine) {
	t.Helper()
	n := m.NProcs()
	m.Run(func(p *Proc) {
		p.Barrier()
		sum := p.Reduce(float64(p.Rank()+1), Sum, 0)
		if p.Rank() == 0 && sum != float64(n*(n+1)/2) {
			t.Errorf("Reduce sum = %v, want %v", sum, n*(n+1)/2)
		}
		p.Barrier()
		if got := p.AllReduce(float64(p.Rank()), Max); got != float64(n-1) {
			t.Errorf("rank %d: AllReduce max = %v, want %v", p.Rank(), got, n-1)
		}
		p.Barrier()
		if got := p.Bcast(float64(p.Rank())*7, 1); got != 7 {
			t.Errorf("rank %d: Bcast = %v, want 7", p.Rank(), got)
		}
		p.Barrier()
		gathered := p.GatherSlices([]float64{float64(p.Rank()) * 10}, 0)
		if p.Rank() == 0 {
			for r := 0; r < n; r++ {
				if gathered[r][0] != float64(r)*10 {
					t.Errorf("gathered[%d] = %v", r, gathered[r])
				}
			}
		}
		p.Barrier()
	})
}

func TestChaosCollectivesSurviveDelayReorder(t *testing.T) {
	for _, seed := range []int64{3, 11, 27} {
		m := MustNew(4)
		m.SetFaults(&FaultPlan{
			Seed: seed, Delay: 0.3, Reorder: 0.3, CrashRank: -1,
		})
		runAllCollectives(t, m)
		if len(m.FaultEvents()) == 0 {
			t.Errorf("seed %d: no faults injected; plan not exercised", seed)
		}
	}
}

// TestChaosCollectivesDropFailsStructured: collectives losing messages
// must end in a deadlock abort that names a parked wait site, at once
// — the hang-to-failure conversion criterion.
func TestChaosCollectivesDropFailsStructured(t *testing.T) {
	m := MustNew(4)
	m.SetFaults(&FaultPlan{Seed: 2, Drop: 0.5, CrashRank: -1})
	start := time.Now()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected deadlock abort under 50% message drop")
		}
		msg := r.(string)
		if !strings.Contains(msg, "deadlock") || !strings.Contains(msg, "parked in") {
			t.Errorf("diagnostic %q should name deadlock and a wait site", msg)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Errorf("abort took %v, want well under the test timeout", elapsed)
		}
	}()
	for i := 0; i < 100; i++ {
		runAllCollectives(t, m)
	}
	t.Fatal("dropping half of all messages never wedged a collective")
}

// TestChaosCrashDuringCollective: a rank crashing mid-collective must
// poison every peer parked inside the collective's receives. Step 3 is
// rank 2's Send inside AllReduce's Reduce, while rank 0 is parked in
// Recv(2, "__reduce"): only the poison wakes it, so a missing poison
// shows up as a deadlock report, counted in machine.watchdog.trips (the
// crash panic is reported either way).
func TestChaosCrashDuringCollective(t *testing.T) {
	m := MustNew(4)
	m.SetFaults(&FaultPlan{Seed: 1, CrashRank: 2, CrashStep: 3})
	trips := telWatchdogTrips.Value()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected crash panic")
		}
		if !strings.Contains(r.(string), "rank 2 crashed at step 3") {
			t.Errorf("panic %q should name the injected crash", r)
		}
		if got := telWatchdogTrips.Value(); got != trips {
			t.Errorf("deadlock detected %d times; the crash should have poisoned the parked peer", got-trips)
		}
	}()
	for i := 0; i < 100; i++ {
		runAllCollectives(t, m)
	}
	t.Fatal("crash step never reached")
}
