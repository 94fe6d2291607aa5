package machine

import (
	"fmt"
	"strings"
	"time"
)

// defaultQuiescence is the watchdog's default confirmation window: how
// long every live processor must stay parked with no progress before
// the run is declared deadlocked. Any deliverable message would wake
// its receiver (bumping progress) long before this.
const defaultQuiescence = 25 * time.Millisecond

// SetQuiescence sets the watchdog's quiescence window (how long an
// all-parked, no-progress state must persist before the run is aborted).
// Shorter windows detect deadlocks faster but must still comfortably
// exceed scheduler latency; the default is 25ms. d ≤ 0 restores the
// default. Set before Run, not concurrently with one.
func (m *Machine) SetQuiescence(d time.Duration) {
	if d <= 0 {
		d = defaultQuiescence
	}
	m.quiescence = d
}

// watchdog aborts the run when every live processor is parked in a
// blocking wait: with all of them waiting and no fault-delayed message
// in flight, no send can ever happen, so the SPMD program has
// deadlocked (e.g. two processors Recv-ing from each other, or a peer
// that exited without sending). The poison message carries a per-rank
// dump of wait sites.
func (m *Machine) watchdog(done <-chan struct{}) {
	tick := m.quiescence / 8
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-done:
			return
		case <-ticker.C:
			// All-live-parked is stable: a parked processor can only resume
			// if some other processor delivers a message or reaches the
			// barrier, and none is running. One confirming re-read over the
			// quiescence window filters the transient where the last
			// arrival at a barrier is between park and broadcast, and the
			// inflight counter keeps fault-delayed deliveries from being
			// mistaken for deadlock.
			active := m.active.Load()
			if active == 0 || m.parked.Load() != active || m.inflight.Load() != 0 {
				continue
			}
			before := m.progress.Load()
			select {
			case <-done:
				return
			case <-time.After(m.quiescence):
			}
			active = m.active.Load()
			if active == 0 || m.parked.Load() != active ||
				m.progress.Load() != before || m.inflight.Load() != 0 {
				continue
			}
			telWatchdogTrips.Inc()
			// Poison the processors before the barrier: a rank woken at
			// the barrier poisons every processor with a generic message
			// as it unwinds, and the first poison wins.
			msg := m.deadlockReport()
			for _, p := range m.procs {
				p.poisonWith(msg)
			}
			m.barrier.poison()
			return
		}
	}
}

// deadlockReport formats the watchdog's diagnostic: one line per parked
// processor naming its wait site and how long it has been there.
// Processors whose body already returned are listed as exited.
func (m *Machine) deadlockReport() string {
	var b strings.Builder
	fmt.Fprintf(&b, "machine: deadlock: all live processors parked with no progress for %v",
		m.quiescence)
	now := time.Now()
	for _, p := range m.procs {
		p.mu.Lock()
		kind := p.waitKind
		site := p.waitSiteLocked()
		since := p.waitSince
		p.mu.Unlock()
		if kind == waitNone {
			fmt.Fprintf(&b, "\n  rank %d not parked (exited or running)", p.rank)
			continue
		}
		fmt.Fprintf(&b, "\n  rank %d parked in %s for %v",
			p.rank, site, now.Sub(since).Round(100*time.Microsecond))
	}
	return b.String()
}
