package machine

import (
	"fmt"
	"iter"
	"strings"
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
// marks it ready: a matching message, the barrier's release or a
// poison. The caller re-checks its wait condition.
func (p *Proc) park() {
	p.ready = false
	if !p.co.yield(struct{}{}) {
		panic(poisonError("machine: run abandoned"))
	}
}

// schedule resumes ready processors in rank order until every body has
// returned. A processor is ready when it has not started yet, its wait
// can complete, or it has been poisoned; resuming one always gets it
// past its wait, so when none is ready only a held fault-delayed
// message can change anything (idle).
func (m *Machine) schedule() {
	for live := m.nprocs; live > 0; {
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
// A fault delay is a scheduling decision: idle delivers the oldest held
// message, which may make its receiver ready. With none held nothing
// can ever wake a processor, so the run is deadlocked, exactly: idle
// poisons every processor with a per-rank wait-site dump.
func (m *Machine) idle() {
	if len(m.delayed) > 0 {
		msg := m.delayed[0]
		m.delayed[0] = Message{}
		m.delayed = m.delayed[1:]
		m.deliver(msg, false)
		return
	}
	telWatchdogTrips.Inc()
	m.poisonAll(m.deadlockReport())
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
// processor naming its wait site. Processors whose body already
// returned are listed as exited.
func (m *Machine) deadlockReport() string {
	var b strings.Builder
	b.WriteString("machine: deadlock: every live processor is parked and no message is in flight")
	for _, p := range m.procs {
		if p.waitKind == waitNone {
			fmt.Fprintf(&b, "\n  rank %d not parked (exited)", p.rank)
			continue
		}
		fmt.Fprintf(&b, "\n  rank %d parked in %s", p.rank, p.waitSite())
	}
	return b.String()
}
