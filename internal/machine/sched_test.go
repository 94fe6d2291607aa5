package machine

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"weak"
)

// TestRunInterleavingIsDeterministic: a fault-free run resumes the
// ranks in one fixed order, so both what each rank receives and the
// order in which the ranks' operations happen repeat exactly on every
// run, on a fresh machine each time.
func TestRunInterleavingIsDeterministic(t *testing.T) {
	const n = 5
	type recv struct {
		from int
		tag  string
		seq  int64
	}
	runOnce := func() ([][]recv, []string) {
		got := make([][]recv, n)
		var order []string // appended by whichever rank runs; one runs at a time
		m := MustNew(n)
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
		return got, order
	}
	firstGot, firstOrder := runOnce()
	for trial := 0; trial < 2; trial++ {
		got, order := runOnce()
		if !reflect.DeepEqual(got, firstGot) {
			t.Fatalf("trial %d: received sequences differ:\nfirst %v\ngot   %v", trial, firstGot, got)
		}
		if !reflect.DeepEqual(order, firstOrder) {
			t.Fatalf("trial %d: interleaving differs:\nfirst %v\ngot   %v", trial, firstOrder, order)
		}
	}
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
