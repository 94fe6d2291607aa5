package machine

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("p=0 should fail")
	}
	m, err := New(4)
	if err != nil || m.NProcs() != 4 {
		t.Fatalf("New(4): %v, nprocs=%d", err, m.NProcs())
	}
}

func TestRunSPMD(t *testing.T) {
	m := MustNew(8)
	var count atomic.Int64
	seen := make([]atomic.Bool, 8)
	m.Run(func(p *Proc) {
		count.Add(1)
		seen[p.Rank()].Store(true)
		if p.NProcs() != 8 {
			t.Errorf("NProcs = %d", p.NProcs())
		}
	})
	if count.Load() != 8 {
		t.Errorf("ran %d bodies, want 8", count.Load())
	}
	for r := range seen {
		if !seen[r].Load() {
			t.Errorf("rank %d never ran", r)
		}
	}
}

func TestSendRecv(t *testing.T) {
	m := MustNew(2)
	m.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, "data", []float64{1, 2, 3})
		} else {
			msg := p.Recv(0, "data")
			if len(msg.Data) != 3 || msg.Data[2] != 3 {
				t.Errorf("bad message: %+v", msg)
			}
			if msg.From != 0 || msg.To != 1 {
				t.Errorf("bad envelope: %+v", msg)
			}
		}
	})
}

func TestRecvTagMatching(t *testing.T) {
	m := MustNew(2)
	m.Run(func(p *Proc) {
		if p.Rank() == 0 {
			// Send out of the order the receiver asks for them.
			p.Send(1, "b", []float64{2})
			p.Send(1, "a", []float64{1})
		} else {
			a := p.Recv(0, "a")
			b := p.Recv(0, "b")
			if a.Data[0] != 1 || b.Data[0] != 2 {
				t.Errorf("tag matching failed: a=%v b=%v", a, b)
			}
		}
	})
}

func TestRecvFIFOPerSenderTag(t *testing.T) {
	m := MustNew(2)
	m.Run(func(p *Proc) {
		if p.Rank() == 0 {
			for i := 0; i < 50; i++ {
				p.Send(1, "seq", []float64{float64(i)})
			}
		} else {
			for i := 0; i < 50; i++ {
				msg := p.Recv(0, "seq")
				if msg.Data[0] != float64(i) {
					t.Fatalf("message %d out of order: %v", i, msg.Data[0])
				}
			}
		}
	})
}

func TestBarrier(t *testing.T) {
	m := MustNew(6)
	var phase atomic.Int64
	m.Run(func(p *Proc) {
		phase.Add(1)
		p.Barrier()
		// After the barrier every processor must see all 6 arrivals.
		if got := phase.Load(); got != 6 {
			t.Errorf("rank %d: phase = %d after barrier, want 6", p.Rank(), got)
		}
		p.Barrier()
		phase.Add(-1)
		p.Barrier()
		if got := phase.Load(); got != 0 {
			t.Errorf("rank %d: phase = %d after second round, want 0", p.Rank(), got)
		}
	})
}

func TestReduce(t *testing.T) {
	m := MustNew(5)
	m.Run(func(p *Proc) {
		got := p.Reduce(float64(p.Rank()+1), Sum, 2)
		if p.Rank() == 2 && got != 15 {
			t.Errorf("Reduce sum = %v, want 15", got)
		}
		if p.Rank() != 2 && got != 0 {
			t.Errorf("non-root got %v", got)
		}
	})
}

func TestAllReduceMax(t *testing.T) {
	m := MustNew(7)
	m.Run(func(p *Proc) {
		got := p.AllReduce(float64(p.Rank()), Max)
		if got != 6 {
			t.Errorf("rank %d: AllReduce max = %v, want 6", p.Rank(), got)
		}
	})
}

func TestBcast(t *testing.T) {
	m := MustNew(4)
	m.Run(func(p *Proc) {
		v := -1.0
		if p.Rank() == 1 {
			v = 99
		}
		got := p.Bcast(v, 1)
		if got != 99 {
			t.Errorf("rank %d: Bcast = %v", p.Rank(), got)
		}
	})
}

func TestGatherSlices(t *testing.T) {
	m := MustNew(3)
	m.Run(func(p *Proc) {
		local := []float64{float64(p.Rank()) * 10}
		all := p.GatherSlices(local, 0)
		if p.Rank() == 0 {
			for r := 0; r < 3; r++ {
				if all[r][0] != float64(r)*10 {
					t.Errorf("gathered[%d] = %v", r, all[r])
				}
			}
		} else if all != nil {
			t.Errorf("non-root rank %d got %v", p.Rank(), all)
		}
	})
}

func TestMultipleRuns(t *testing.T) {
	m := MustNew(3)
	for round := 0; round < 4; round++ {
		m.Run(func(p *Proc) {
			next := (p.Rank() + 1) % 3
			prev := (p.Rank() + 2) % 3
			p.Send(next, "ring", []float64{float64(p.Rank())})
			msg := p.Recv(prev, "ring")
			if int(msg.Data[0]) != prev {
				t.Errorf("round %d rank %d: got %v", round, p.Rank(), msg.Data[0])
			}
			p.Barrier()
		})
	}
}

func TestPanicPropagates(t *testing.T) {
	m := MustNew(3)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic from Run")
		}
		if !strings.Contains(r.(string), "boom") {
			t.Errorf("panic message %q does not mention cause", r)
		}
	}()
	m.Run(func(p *Proc) {
		if p.Rank() == 1 {
			panic("boom")
		}
		// Other processors block; the poison must unblock them.
		p.Recv(1, "never-sent")
	})
}

func TestMachineUsableAfterPanic(t *testing.T) {
	m := MustNew(2)
	func() {
		defer func() { recover() }()
		m.Run(func(p *Proc) {
			if p.Rank() == 0 {
				panic("first run dies")
			}
			p.Barrier()
		})
	}()
	// The machine must be reusable after the failed run.
	m.Run(func(p *Proc) {
		p.Barrier()
		if p.Rank() == 0 {
			p.Send(1, "ok", []float64{1})
		} else {
			if msg := p.Recv(0, "ok"); msg.Data[0] != 1 {
				t.Error("recovery run failed")
			}
		}
	})
}

func TestSendInvalidRankPanics(t *testing.T) {
	m := MustNew(2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	m.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(5, "x", nil)
		}
	})
}

func TestStatsCounting(t *testing.T) {
	m := MustNew(3)
	m.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, "x", []float64{1, 2, 3})
			p.Send(2, "x", []float64{4})
		}
		if p.Rank() != 0 {
			p.Recv(0, "x")
		}
	})
	s0 := m.Stats(0)
	if s0.MessagesSent != 2 || s0.ValuesSent != 4 {
		t.Errorf("proc 0 stats = %+v, want 2 msgs / 4 values", s0)
	}
	if s0.MessagesReceived != 0 || s0.ValuesReceived != 0 {
		t.Errorf("proc 0 received nothing but stats = %+v", s0)
	}
	if s := m.Stats(1); s.MessagesSent != 0 {
		t.Errorf("proc 1 sent nothing but stats = %+v", s)
	}
	if s := m.Stats(1); s.MessagesReceived != 1 || s.ValuesReceived != 3 {
		t.Errorf("proc 1 recv stats = %+v, want 1 msg / 3 values", s)
	}
	if s := m.Stats(2); s.MessagesReceived != 1 || s.ValuesReceived != 1 {
		t.Errorf("proc 2 recv stats = %+v, want 1 msg / 1 value", s)
	}
	total := m.TotalStats()
	if total.MessagesSent != 2 || total.ValuesSent != 4 {
		t.Errorf("total = %+v", total)
	}
	if total.MessagesReceived != 2 || total.ValuesReceived != 4 {
		t.Errorf("total recv = %+v, want 2 msgs / 4 values received", total)
	}
	m.ResetStats()
	if s := m.TotalStats(); s != (Stats{}) {
		t.Errorf("after reset: %+v", s)
	}
}

func TestStatsAccumulateAcrossRuns(t *testing.T) {
	m := MustNew(2)
	for round := 0; round < 3; round++ {
		m.Run(func(p *Proc) {
			if p.Rank() == 0 {
				p.Send(1, "r", []float64{1, 2})
			} else {
				p.Recv(0, "r")
			}
		})
	}
	if s := m.Stats(0); s.MessagesSent != 3 || s.ValuesSent != 6 {
		t.Errorf("accumulated stats = %+v", s)
	}
}

func TestDeadlockDetected(t *testing.T) {
	m := MustNew(2)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected deadlock panic")
		}
		if !strings.Contains(r.(string), "deadlock") {
			t.Errorf("panic %q should mention deadlock", r)
		}
	}()
	// Both processors wait for a message the other never sends.
	m.Run(func(p *Proc) {
		p.Recv(1-p.Rank(), "never")
	})
}

func TestNoFalseDeadlockUnderChatter(t *testing.T) {
	// A long-running ping-pong must not trip the deadlock detector.
	m := MustNew(2)
	m.Run(func(p *Proc) {
		other := 1 - p.Rank()
		for i := 0; i < 2000; i++ {
			if p.Rank() == 0 {
				p.Send(other, "ping", []float64{float64(i)})
				p.Recv(other, "pong")
			} else {
				p.Recv(other, "ping")
				p.Send(other, "pong", nil)
			}
		}
		p.Barrier()
	})
}

// TestRecvReleasesMailboxSlot is the regression test for the slice-delete
// retention bug: deleting mailbox entry i with append(box[:i], box[i+1:]...)
// left the vacated tail slot holding the last message's payload slices,
// pinning delivered payloads until some later send overwrote the slot.
func TestRecvReleasesMailboxSlot(t *testing.T) {
	m := MustNew(2)
	m.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, "a", make([]float64, 4096))
			p.Send(1, "b", make([]float64, 4096))
			p.Send(1, "c", make([]float64, 4096))
		} else {
			// Receive out of order so deletions happen at interior indexes too.
			p.Recv(0, "b")
			p.Recv(0, "a")
			p.Recv(0, "c")
		}
	})
	box := m.procs[1].mailbox
	if len(box) != 0 {
		t.Fatalf("mailbox should be empty, has %d messages", len(box))
	}
	for i, msg := range box[:cap(box)] {
		if msg.Data != nil {
			t.Errorf("vacated mailbox slot %d still pins its payload", i)
		}
	}
}

// TestPoisonWakesAllWaitSites checks the poison path across every
// blocking wait: a rank that panics while peers are parked in Recv or
// Barrier must wake and poison all of them, and Run must report the
// root cause.
func TestPoisonWakesAllWaitSites(t *testing.T) {
	cases := []struct {
		name string
		wait func(p *Proc)
	}{
		{"Recv", func(p *Proc) { p.Recv(0, "never-sent") }},
		{"Barrier", func(p *Proc) { p.Barrier() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := MustNew(4)
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s waiters: expected Run to panic", tc.name)
				}
				if !strings.Contains(r.(string), "boom-"+tc.name) {
					t.Errorf("panic %q does not name the root cause", r)
				}
			}()
			m.Run(func(p *Proc) {
				if p.Rank() == 1 {
					panic("boom-" + tc.name)
				}
				tc.wait(p)
			})
		})
	}
}

// TestWatchdogNamesEveryParkedRank asserts the acceptance criterion: a
// deliberately omitted Send aborts at once and the error names every
// parked rank with its wait site.
func TestWatchdogNamesEveryParkedRank(t *testing.T) {
	m := MustNew(3)
	start := time.Now()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected deadlock panic")
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Errorf("deadlock detection took %v; it should be immediate", elapsed)
		}
		msg := r.(string)
		for _, want := range []string{
			"deadlock",
			`rank 0 parked in Recv(from=1, tag="halo-left")`,
			`rank 1 parked in Recv(from=2, tag="gather")`,
			"rank 2 parked in Barrier",
		} {
			if !strings.Contains(msg, want) {
				t.Errorf("diagnostic %q missing %q", msg, want)
			}
		}
	}()
	m.Run(func(p *Proc) {
		switch p.Rank() {
		case 0:
			p.Recv(1, "halo-left")
		case 1:
			p.Recv(2, "gather")
		case 2:
			p.Barrier()
		}
	})
}

// TestWatchdogCatchesExitedPeerDeadlock: a rank that returns without
// sending leaves its peer parked forever; the scheduler must treat
// "all live ranks parked" as deadlock even though one rank exited.
func TestWatchdogCatchesExitedPeerDeadlock(t *testing.T) {
	m := MustNew(2)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected deadlock panic")
		}
		if !strings.Contains(r.(string), `rank 0 parked in Recv(from=1, tag="gone")`) {
			t.Errorf("diagnostic %q does not name the surviving waiter", r)
		}
	}()
	m.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.Recv(1, "gone")
		}
		// Rank 1 exits immediately without sending.
	})
}
