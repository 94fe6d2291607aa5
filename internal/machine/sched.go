package machine

import (
	"fmt"
	"iter"
	"strings"
	"time"
)

// coro is a pooled coroutine that runs one processor's body per Run.
// Its goroutine loops forever: run the bound body, mark the processor
// exited, yield to the scheduler, and wait to be bound again.
type coro struct {
	resume func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool

	p    *Proc
	body func(*Proc)
}

func (c *coro) loop(yield func(struct{}) bool) {
	c.yield = yield
	for {
		c.run()
		c.p.exited = true
		if !yield(struct{}{}) {
			return
		}
	}
}

// run executes the bound body, recording a panic on its processor.
func (c *coro) run() {
	defer func() {
		if r := recover(); r != nil {
			c.p.panicVal = r
		}
	}()
	c.body(c.p)
}

// idleCoros is the process-wide free list of idle coroutines. An idle
// coroutine holds no processor or body, so pooling them pins no
// machine; the list is bounded so one wide machine does not keep its
// coroutines' goroutines alive for the life of the process.
var idleCoros = make(chan *coro, 64)

// getCoro returns an idle coroutine bound to run body on p.
func getCoro(p *Proc, body func(*Proc)) *coro {
	var c *coro
	select {
	case c = <-idleCoros:
	default:
		c = new(coro)
		c.resume, c.stop = iter.Pull(c.loop)
	}
	c.p, c.body = p, body
	return c
}

// putCoro unbinds a coroutine whose body has returned and pools it, or
// ends its goroutine when the pool is full.
func putCoro(c *coro) {
	c.p, c.body = nil, nil
	select {
	case idleCoros <- c:
	default:
		c.stop()
	}
}

// park yields this processor back to the scheduler until something
// marks it ready: a matching message, the barrier's release, a poison
// or an expired deadline. The caller re-checks its wait condition.
func (p *Proc) park() {
	p.ready = false
	if !p.co.yield(struct{}{}) {
		panic(poisonError("machine: run abandoned"))
	}
}

// schedule resumes ready processors in rank order until every body has
// returned. A processor is ready when it has not started yet, its wait
// can complete, or it has been poisoned; resuming one always gets it
// past its wait, so when none is ready nothing can change without
// outside help: a fault-delayed message landing or a Recv deadline
// passing. With neither pending the run is deadlocked, exactly.
func (m *Machine) schedule() {
	for live := m.nprocs; live > 0; {
		if m.inflight > 0 {
			m.drainDelayed()
		}
		ran := false
		for _, p := range m.procs {
			if !p.ready {
				continue
			}
			ran = true
			p.co.resume()
			if !p.exited {
				continue
			}
			live--
			p.ready, p.waitKind = false, waitNone
			if p.panicVal != nil {
				m.poisonAll("machine: peer processor panicked while this one was waiting")
			}
		}
		if !ran {
			m.idle()
		}
	}
}

// idle runs when every live processor is parked and none can proceed.
// It delivers fault-delayed messages that have landed, waits for one
// still in flight or for the earliest Recv deadline (which takes
// precedence over a deadlock report), and otherwise reports the
// deadlock by poisoning every processor with a per-rank wait-site dump.
func (m *Machine) idle() {
	if m.drainDelayed() {
		return
	}
	var due time.Time
	if d := m.deadline; d > 0 {
		for _, p := range m.procs {
			if p.waitKind == waitRecv && (due.IsZero() || p.waitSince.Before(due)) {
				due = p.waitSince
			}
		}
		if !due.IsZero() {
			due = due.Add(d)
		}
	}
	if due.IsZero() && m.inflight == 0 {
		telWatchdogTrips.Inc()
		m.poisonAll(m.deadlockReport())
		return
	}
	var timeout <-chan time.Time
	if !due.IsZero() {
		t := time.NewTimer(time.Until(due))
		defer t.Stop()
		timeout = t.C
	}
	select {
	case <-m.wake:
	case <-timeout:
		now := time.Now()
		for _, p := range m.procs {
			if p.waitKind == waitRecv && now.Sub(p.waitSince) >= m.deadline {
				p.ready = true
			}
		}
	}
}

// delayDelivery sends msg after d, counting it in flight until the
// scheduler delivers it.
func (m *Machine) delayDelivery(msg Message, d time.Duration) {
	m.inflight++
	time.AfterFunc(d, func() {
		m.delayMu.Lock()
		m.landed = append(m.landed, msg)
		m.delayMu.Unlock()
		select {
		case m.wake <- struct{}{}:
		default:
		}
	})
}

// drainDelayed delivers the fault-delayed messages that have landed and
// reports whether there were any. A message still in flight when its
// Run returns is delivered during the next one.
func (m *Machine) drainDelayed() bool {
	m.delayMu.Lock()
	landed := m.landed
	m.landed = nil
	m.delayMu.Unlock()
	for _, msg := range landed {
		m.deliver(msg, false)
	}
	m.inflight -= len(landed)
	return len(landed) > 0
}

// poisonAll makes every unfinished processor fail at its current or next
// wait. The first poison wins, keeping the root-cause message.
func (m *Machine) poisonAll(msg string) {
	for _, p := range m.procs {
		if !p.poisoned {
			p.poisoned, p.poisonMsg = true, msg
		}
		p.ready = !p.exited
	}
}

// deadlockReport formats the deadlock diagnostic: one line per parked
// processor naming its wait site and how long it has been there.
// Processors whose body already returned are listed as exited.
func (m *Machine) deadlockReport() string {
	var b strings.Builder
	b.WriteString("machine: deadlock: every live processor is parked and no message is in flight")
	now := time.Now()
	for _, p := range m.procs {
		if p.waitKind == waitNone {
			fmt.Fprintf(&b, "\n  rank %d not parked (exited)", p.rank)
			continue
		}
		fmt.Fprintf(&b, "\n  rank %d parked in %s for %v",
			p.rank, p.waitSite(), now.Sub(p.waitSince).Round(time.Microsecond))
	}
	return b.String()
}
