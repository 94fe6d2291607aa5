package telemetry

import "sync"

// rankRings is the per-rank record store behind both the event tracer
// and the access recorder: one fixed-capacity ring per processor rank
// plus one host ring (index ranks) that absorbs HostRank and any
// out-of-range rank rather than corrupting memory. Each ring has its own
// mutex (uncontended in SPMD use — each rank records from its own
// goroutine); push never allocates, and a full ring overwrites its
// oldest record.
type rankRings[T any] struct {
	ranks int
	rings []ring[T] // rings[0..ranks-1] per rank, rings[ranks] is the host
}

type ring[T any] struct {
	mu  sync.Mutex
	buf []T
	n   uint64 // total records ever pushed; buf[(n-1)%cap] is newest
}

func newRankRings[T any](ranks, capacity int) rankRings[T] {
	if ranks < 0 {
		ranks = 0
	}
	rs := rankRings[T]{ranks: ranks, rings: make([]ring[T], ranks+1)}
	for i := range rs.rings {
		rs.rings[i].buf = make([]T, capacity)
	}
	return rs
}

// index maps a rank onto its ring: processor ranks keep their number,
// HostRank and out-of-range ranks fold onto the host ring.
func (rs *rankRings[T]) index(rank int32) int {
	if rank >= 0 && int(rank) < rs.ranks {
		return int(rank)
	}
	return rs.ranks
}

// capacity is the number of records each ring retains.
func (rs *rankRings[T]) capacity() int { return len(rs.rings[0].buf) }

// push appends v to rank's ring, overwriting the oldest record when the
// ring is full.
func (rs *rankRings[T]) push(rank int32, v T) {
	r := &rs.rings[rs.index(rank)]
	r.mu.Lock()
	r.buf[r.n%uint64(len(r.buf))] = v
	r.n++
	r.mu.Unlock()
}

// snapshot appends the records ring i retains to dst, oldest first.
func (rs *rankRings[T]) snapshot(dst []T, i int) []T {
	r := &rs.rings[i]
	r.mu.Lock()
	defer r.mu.Unlock()
	c := uint64(len(r.buf))
	kept := min(r.n, c)
	for j := r.n - kept; j < r.n; j++ {
		dst = append(dst, r.buf[j%c])
	}
	return dst
}

// dropped returns how many records were overwritten because their ring
// was full.
func (rs *rankRings[T]) dropped() int64 {
	var d int64
	for i := range rs.rings {
		r := &rs.rings[i]
		r.mu.Lock()
		if c := uint64(len(r.buf)); r.n > c {
			d += int64(r.n - c)
		}
		r.mu.Unlock()
	}
	return d
}
