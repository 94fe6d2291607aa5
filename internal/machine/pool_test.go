package machine

import (
	"sync"
	"testing"
)

func TestGetBufCapacityAndEmpty(t *testing.T) {
	b := GetBuf(100)
	if len(b) != 0 {
		t.Fatalf("GetBuf returned len %d, want 0", len(b))
	}
	if cap(b) < 100 {
		t.Fatalf("GetBuf returned cap %d, want >= 100", cap(b))
	}
	b = append(b, 1, 2, 3)
	PutBuf(b)
	b2 := GetBuf(3)
	if len(b2) != 0 {
		t.Fatalf("recycled buffer has len %d, want 0", len(b2))
	}
}

func TestPutBufRejectsGiants(t *testing.T) {
	PutBuf(make([]float64, 0, maxPooledCap+1)) // must not panic, must not pool
	PutBuf(nil)                                // must not panic
}

// TestBufPoolConcurrentSendRecv round-trips pooled buffers through the
// machine's mailboxes under -race: every processor sends pooled payloads
// to every other and recycles what it receives.
func TestBufPoolConcurrentSendRecv(t *testing.T) {
	const procs = 8
	m := MustNew(procs)
	for round := 0; round < 20; round++ {
		m.Run(func(p *Proc) {
			me := p.Rank()
			for r := 0; r < procs; r++ {
				buf := GetBuf(4)
				buf = append(buf, float64(me), float64(r))
				p.Send(r, "pool.test", buf)
			}
			for q := 0; q < procs; q++ {
				msg := p.Recv(q, "pool.test")
				if len(msg.Data) != 2 || msg.Data[0] != float64(q) || msg.Data[1] != float64(me) {
					panic("corrupted pooled payload")
				}
				PutBuf(msg.Data)
			}
		})
	}
}

func TestBufPoolParallelStress(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				b := GetBuf(i % 257)
				for j := 0; j < i%257; j++ {
					b = append(b, float64(w))
				}
				for _, v := range b {
					if v != float64(w) {
						t.Errorf("buffer shared across goroutines")
						return
					}
				}
				PutBuf(b)
			}
		}(w)
	}
	wg.Wait()
}
