package machine

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"weak"
)

// TestRunInterleavingIsDeterministic: the scheduler resumes the ranks
// in one fixed order and delivers held fault-delayed messages oldest
// first, so what each rank receives, the order in which the ranks'
// operations happen and the injected faults repeat exactly on every
// run, on a fresh machine each time, with or without a fault plan.
// Every rank sends the same value in every round, so a duplicated,
// delayed or reordered message still leaves each sum intact.
func TestRunInterleavingIsDeterministic(t *testing.T) {
	const n = 5
	type recv struct {
		from int
		tag  string
		seq  int64
	}
	runOnce := func(plan *FaultPlan) ([][]recv, []string, []FaultEvent) {
		got := make([][]recv, n)
		var order []string // appended by whichever rank runs; one runs at a time
		m := MustNew(n)
		m.SetFaults(plan)
		m.Run(func(p *Proc) {
			me := p.Rank()
			for round := 0; round < 3; round++ {
				tag := fmt.Sprintf("a2a-%d", round)
				for to := 0; to < n; to++ {
					p.Send(to, tag, []float64{float64(me)})
					order = append(order, fmt.Sprintf("%d>%d", me, to))
				}
				for k := 1; k <= n; k++ {
					from := (me + k) % n
					msg := p.Recv(from, tag)
					got[me] = append(got[me], recv{msg.From, msg.Tag, msg.Seq})
					order = append(order, fmt.Sprintf("%d<%d", me, from))
				}
				if sum := p.AllReduce(float64(me), Sum); sum != n*(n-1)/2 {
					t.Errorf("rank %d: AllReduce = %v", me, sum)
				}
				order = append(order, fmt.Sprintf("%d=", me))
			}
		})
		return got, order, m.FaultEvents()
	}
	for _, tc := range []struct {
		name string
		plan *FaultPlan
	}{
		{"fault-free", nil},
		{"delay-reorder-dup", &FaultPlan{Seed: 4, Delay: 0.3, Reorder: 0.3, Dup: 0.2, CrashRank: -1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			firstGot, firstOrder, firstEvents := runOnce(tc.plan)
			if tc.plan != nil && !slices.ContainsFunc(firstEvents, func(e FaultEvent) bool { return e.Kind == FaultDelay }) {
				t.Fatalf("plan delayed no message: %v", firstEvents)
			}
			for trial := 0; trial < 2; trial++ {
				got, order, events := runOnce(tc.plan)
				if !reflect.DeepEqual(got, firstGot) {
					t.Fatalf("trial %d: received sequences differ:\nfirst %v\ngot   %v", trial, firstGot, got)
				}
				if !reflect.DeepEqual(order, firstOrder) {
					t.Fatalf("trial %d: interleaving differs:\nfirst %v\ngot   %v", trial, firstOrder, order)
				}
				if !reflect.DeepEqual(events, firstEvents) {
					t.Fatalf("trial %d: fault events differ:\nfirst %v\ngot   %v", trial, firstEvents, events)
				}
			}
		})
	}
}

// TestUnreceivedDelayedMessageIsDelivered: a delay is never a drop. A
// delayed message nobody receives is in its receiver's mailbox once
// Run returns, and a later Run can receive it.
func TestUnreceivedDelayedMessageIsDelivered(t *testing.T) {
	m := MustNew(2)
	m.SetFaults(&FaultPlan{Seed: 1, Delay: 1, CrashRank: -1})
	m.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, "late", []float64{5})
		}
	})
	if got := m.FaultEvents(); len(got) != 1 || got[0].Kind != FaultDelay {
		t.Fatalf("fault events %v, want one delay", got)
	}
	if mb := m.procs[1].mailbox; len(mb) != 1 || mb[0].Tag != "late" || mb[0].Data[0] != 5 {
		t.Fatalf("rank 1 mailbox after Run = %+v, want the delayed message", mb)
	}
	if len(m.delayed) != 0 {
		t.Fatalf("machine still holds %d delayed messages", len(m.delayed))
	}
	m.SetFaults(nil)
	m.Run(func(p *Proc) {
		if p.Rank() == 1 {
			if msg := p.Recv(0, "late"); msg.Data[0] != 5 {
				t.Errorf("late payload corrupted: %v", msg.Data)
			}
		}
	})
}

// TestIdleCoroutinesPinNoMachine: the coroutines a Run used go back to
// the process-wide pool unbound, so a dropped machine is collectable.
func TestIdleCoroutinesPinNoMachine(t *testing.T) {
	m := MustNew(4)
	m.Run(func(p *Proc) {
		p.Send((p.Rank()+1)%4, "ring", []float64{1})
		p.Recv((p.Rank()+3)%4, "ring")
		p.Barrier()
	})
	wp := weak.Make(m)
	m = nil
	runtime.GC()
	if wp.Value() != nil {
		t.Fatal("machine still reachable after Run returned and it was dropped")
	}
}
