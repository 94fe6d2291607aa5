// Package machine simulates a distributed-memory multiprocessor: the
// substrate the paper's runtime routines execute on. The original
// evaluation ran on a 32-node Intel iPSC/860 hypercube; here each
// processor is a goroutine with a private mailbox, and message passing,
// barriers and collectives are built on channels and condition variables
// (see DESIGN.md, Substitutions).
//
// The programming model is SPMD: Machine.Run launches the same body on
// every processor and waits for all of them to finish. Within the body,
// a *Proc provides its rank and the communication primitives.
//
// The machine also carries a robustness layer (see README, Robustness):
// a deadlock watchdog with per-rank wait-site diagnostics (watchdog.go),
// a machine-wide receive deadline, and deterministic seeded fault
// injection (faults.go).
package machine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Message is a tagged point-to-point message carrying float64 array
// data; Tag disambiguates concurrent conversations (like MPI tags).
//
// Seq is the per-(From, To, Tag) FIFO sequence number Send assigned:
// the first message on a given (sender, receiver, tag) channel is 1,
// and FIFO delivery guarantees a receiver consumes each channel in
// sequence order. Trace events carry it, which is what lets the
// trace-analysis layer match every recv to the exact send that
// produced it (fault injection may duplicate or drop a Seq; it is
// never reassigned).
type Message struct {
	From, To int
	Tag      string
	Seq      int64
	Data     []float64
}

// Machine is a simulated multiprocessor with a fixed processor count.
type Machine struct {
	nprocs  int
	procs   []*Proc
	barrier *barrier

	// parked counts processors blocked in Recv/Barrier waits and
	// active counts processors whose body is still running. When every
	// live (active) processor is parked no message can ever be delivered,
	// so the run is deadlocked; Run's watchdog then aborts it with a
	// diagnostic panic instead of hanging forever. progress increments on
	// every send and wakeup so the watchdog can distinguish a true
	// deadlock from a waiter that is runnable but not yet scheduled.
	// inflight counts fault-delayed messages that have been decided but
	// not yet delivered; the watchdog never trips while one is pending.
	parked   atomic.Int64
	active   atomic.Int64
	progress atomic.Int64
	inflight atomic.Int64

	// runMu serializes Run calls: concurrent runs would share the
	// processors' mailboxes and read each other's messages.
	runMu sync.Mutex

	// Robustness knobs; set before Run (not concurrently with one).
	quiescence time.Duration // watchdog confirmation window
	deadline   time.Duration // machine-wide Recv deadline (0 = none)

	faults   *FaultPlan
	faultMu  sync.Mutex
	faultLog []FaultEvent
}

// New creates a machine with p processors (p ≥ 1).
func New(p int) (*Machine, error) {
	if p < 1 {
		return nil, fmt.Errorf("machine: processor count %d < 1", p)
	}
	m := &Machine{nprocs: p, quiescence: defaultQuiescence}
	m.barrier = newBarrier(p, &m.parked, &m.progress)
	m.procs = make([]*Proc, p)
	for i := range m.procs {
		m.procs[i] = &Proc{rank: i, m: m}
		m.procs[i].cond = sync.NewCond(&m.procs[i].mu)
	}
	return m, nil
}

// MustNew is New but panics on invalid arguments.
func MustNew(p int) *Machine {
	m, err := New(p)
	if err != nil {
		panic(err)
	}
	return m
}

// NProcs returns the processor count.
func (m *Machine) NProcs() int { return m.nprocs }

// WithDeadline sets a machine-wide deadline applied to every blocking
// Recv (0 disables): a receive that waits longer panics with a
// diagnostic naming the wait site, which Run converts into a structured
// failure instead of a hang. Returns m for chaining.
func (m *Machine) WithDeadline(d time.Duration) *Machine {
	if d < 0 {
		d = 0
	}
	m.deadline = d
	return m
}

// SetFaults arms plan for subsequent Run calls (nil disarms). The plan's
// per-rank random streams and the fault-event log reset at the start of
// every Run, so a given plan and SPMD body reproduce the identical
// decision sequence on every run.
func (m *Machine) SetFaults(plan *FaultPlan) { m.faults = plan }

// Run executes body on every processor concurrently (SPMD) and blocks
// until all instances return. It may be called repeatedly; mailboxes
// persist across runs, so a protocol may span multiple Run calls.
//
// Concurrent Run calls on one machine execute one at a time: Run holds
// a per-machine lock for its whole duration and releases it on every
// return, including a re-raised panic. A body must not call Run on its
// own machine.
//
// A panic in any body is re-raised on the caller after all other bodies
// finish or deadlock-free exit cannot be guaranteed; bodies should not
// panic as part of normal operation.
func (m *Machine) Run(body func(p *Proc)) {
	m.runMu.Lock()
	defer m.runMu.Unlock()
	if m.faults != nil {
		m.faultMu.Lock()
		m.faultLog = m.faultLog[:0]
		m.faultMu.Unlock()
		for _, p := range m.procs {
			p.ops = 0
			p.frand = m.faults.rankRand(p.rank)
		}
	}
	var wg sync.WaitGroup
	panics := make([]any, m.nprocs)
	m.active.Store(int64(m.nprocs))
	for i := 0; i < m.nprocs; i++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer m.active.Add(-1)
			defer func() {
				if r := recover(); r != nil {
					panics[rank] = r
					// Unblock any peers waiting on this processor.
					m.barrier.poison()
					for _, p := range m.procs {
						p.poison()
					}
				}
			}()
			body(m.procs[rank])
		}(i)
	}
	done := make(chan struct{})
	go m.watchdog(done)
	wg.Wait()
	close(done)
	// Restore the machine for subsequent runs before re-raising anything.
	m.barrier.reset()
	for _, p := range m.procs {
		p.unpoison()
	}
	// Report an original panic in preference to the poisonError cascades it
	// induced in blocked peers.
	var firstRank = -1
	var firstVal any
	for rank, r := range panics {
		if r == nil {
			continue
		}
		if _, induced := r.(poisonError); !induced {
			panic(fmt.Sprintf("machine: processor %d panicked: %v", rank, r))
		}
		if firstRank < 0 {
			firstRank, firstVal = rank, r
		}
	}
	if firstRank >= 0 {
		panic(fmt.Sprintf("machine: processor %d panicked: %v", firstRank, firstVal))
	}
}

// poisonError marks panics induced in processors that were blocked when a
// peer failed, so Run can report the root cause instead.
type poisonError string

func (e poisonError) Error() string { return string(e) }

// Proc is one simulated processor: a rank plus communication state.
type Proc struct {
	rank int
	m    *Machine

	mu        sync.Mutex
	cond      *sync.Cond
	mailbox   []Message
	poisoned  bool
	poisonMsg string

	// Wait-site diagnostics for the watchdog, guarded by mu: which
	// blocking call this processor is parked in, and since when.
	waitKind  waitKind
	waitFrom  int
	waitTag   string
	waitSince time.Time

	// Fault-injection state, touched only by this processor's goroutine
	// (reset by Run): the machine-op counter crash steps index into, and
	// the rank's private decision stream.
	ops   int64
	frand *faultRand

	// seqs assigns per-(destination, tag) FIFO sequence numbers to sent
	// messages. Touched only by this processor's goroutine; persists
	// across Run calls (like mailboxes) so numbers stay unique for the
	// machine's lifetime.
	seqs map[seqKey]int64

	stats statCounters
}

type waitKind uint8

const (
	waitNone waitKind = iota
	waitRecv
	waitBarrier
)

// waitSiteLocked formats the processor's current wait site. p.mu held.
func (p *Proc) waitSiteLocked() string {
	switch p.waitKind {
	case waitRecv:
		return fmt.Sprintf("Recv(from=%d, tag=%q)", p.waitFrom, p.waitTag)
	case waitBarrier:
		return "Barrier"
	}
	return "running"
}

// Rank returns this processor's rank in [0, NProcs).
func (p *Proc) Rank() int { return p.rank }

// NProcs returns the machine's processor count.
func (p *Proc) NProcs() int { return p.m.nprocs }

// Send delivers a message to processor `to`. Payload slices are not
// copied; senders must not mutate them after sending (ownership
// transfers, as with channel sends).
func (p *Proc) Send(to int, tag string, data []float64) {
	if to < 0 || to >= p.m.nprocs {
		panic(fmt.Sprintf("machine: send to invalid rank %d", to))
	}
	op := p.faultStep()
	p.stats.messagesSent.Add(1)
	p.stats.valuesSent.Add(int64(len(data)))
	telMessagesSent.Inc()
	telValuesSent.Add(int64(len(data)))
	telSendBytes.Observe(int64(len(data)) * 8)
	p.m.progress.Add(1)
	msg := Message{From: p.rank, To: to, Tag: tag, Seq: p.nextSeq(to, tag), Data: data}
	tr := telemetry.ActiveTracer()
	var t0 int64
	if tr != nil {
		t0 = tr.Now()
	}
	if fp := p.m.faults; fp == nil || !p.injectSendFault(fp, op, msg) {
		p.deliver(to, msg, false)
	}
	if tr != nil {
		// Recorded after delivery so the event spans the actual mailbox
		// hand-off — a real slice viewers and the critical-path walker can
		// anchor the send→recv flow edge to.
		tr.Record(telemetry.Event{
			Kind: telemetry.KindSend, Name: tag, Rank: int32(p.rank),
			Peer: int32(to), Bytes: int64(len(data)) * 8, Seq: msg.Seq,
			Start: t0, Dur: tr.Now() - t0,
		})
	}
}

// seqKey identifies one FIFO message channel out of a processor.
type seqKey struct {
	to  int
	tag string
}

// nextSeq returns the next sequence number for messages to rank `to`
// with the given tag (first message is 1). Touched only by this
// processor's goroutine, like the fault-injection state.
func (p *Proc) nextSeq(to int, tag string) int64 {
	if p.seqs == nil {
		p.seqs = make(map[seqKey]int64)
	}
	k := seqKey{to: to, tag: tag}
	p.seqs[k]++
	return p.seqs[k]
}

// deliver appends msg to rank to's mailbox (or prepends it when front is
// set, the reorder fault) and wakes the receiver.
func (p *Proc) deliver(to int, msg Message, front bool) {
	dst := p.m.procs[to]
	dst.mu.Lock()
	if front && len(dst.mailbox) > 0 {
		dst.mailbox = append(dst.mailbox, Message{})
		copy(dst.mailbox[1:], dst.mailbox)
		dst.mailbox[0] = msg
	} else {
		dst.mailbox = append(dst.mailbox, msg)
	}
	dst.mu.Unlock()
	dst.cond.Broadcast()
}

// Recv blocks until a message with the given source and tag arrives and
// returns it. Messages from the same sender with the same tag are
// delivered in send order. If the machine has a deadline (WithDeadline),
// waiting past it panics with a diagnostic naming this wait site; Run
// converts the panic into a structured failure.
func (p *Proc) Recv(from int, tag string) Message {
	start := time.Now()
	p.faultStep()
	d := p.m.deadline
	if d > 0 {
		// The timer broadcast wakes this processor so the expiry check
		// below runs even if no message ever arrives.
		timer := time.AfterFunc(d, p.cond.Broadcast)
		defer timer.Stop()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.waitKind, p.waitFrom, p.waitTag, p.waitSince = waitRecv, from, tag, start
	defer func() { p.waitKind = waitNone }()
	for {
		for i, msg := range p.mailbox {
			if msg.From == from && msg.Tag == tag {
				copy(p.mailbox[i:], p.mailbox[i+1:])
				last := len(p.mailbox) - 1
				// Zero the vacated tail slot so the backing array does not
				// pin the delivered payload (or the shifted copies' slices)
				// until some later send overwrites it.
				p.mailbox[last] = Message{}
				p.mailbox = p.mailbox[:last]
				p.recorded(msg, start)
				return msg
			}
		}
		if p.poisoned {
			panic(poisonError(p.poisonMsg))
		}
		if d > 0 && time.Since(start) >= d {
			telRecvTimeouts.Inc()
			panic(fmt.Sprintf("machine: Recv(from=%d, tag=%q) exceeded machine deadline %v",
				from, tag, d))
		}
		p.m.parked.Add(1)
		p.cond.Wait()
		p.m.parked.Add(-1)
		p.m.progress.Add(1)
	}
}

// recorded accounts one delivered message on the receive side: the
// per-processor counters, the process-wide telemetry, and — when a
// tracer is active — a recv event whose duration is the time this
// processor spent blocked since entering Recv.
func (p *Proc) recorded(msg Message, start time.Time) {
	wait := time.Since(start).Nanoseconds()
	p.stats.messagesRecv.Add(1)
	p.stats.valuesRecv.Add(int64(len(msg.Data)))
	telMessagesRecv.Inc()
	telValuesRecv.Add(int64(len(msg.Data)))
	telRecvWaitNs.Observe(wait)
	if tr := telemetry.ActiveTracer(); tr != nil {
		tr.Record(telemetry.Event{
			Kind: telemetry.KindRecv, Name: msg.Tag, Rank: int32(p.rank),
			Peer: int32(msg.From), Bytes: int64(len(msg.Data)) * 8, Seq: msg.Seq,
			Start: tr.Now() - wait, Dur: wait,
		})
	}
}

// Barrier blocks until every processor has reached it.
func (p *Proc) Barrier() {
	start := time.Now()
	p.faultStep()
	p.mu.Lock()
	p.waitKind, p.waitSince = waitBarrier, start
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.waitKind = waitNone
		p.mu.Unlock()
	}()
	p.m.barrier.await()
	wait := time.Since(start).Nanoseconds()
	telBarrierNs.Observe(wait)
	if tr := telemetry.ActiveTracer(); tr != nil {
		tr.Record(telemetry.Event{
			Kind: telemetry.KindBarrier, Name: "barrier", Rank: int32(p.rank),
			Peer: -1, Start: tr.Now() - wait, Dur: wait,
		})
	}
}

func (p *Proc) poison() {
	p.poisonWith("machine: peer processor panicked while this one was receiving")
}

func (p *Proc) poisonWith(msg string) {
	p.mu.Lock()
	if !p.poisoned { // first poison wins: keep the root-cause message
		p.poisoned = true
		p.poisonMsg = msg
	}
	p.mu.Unlock()
	p.cond.Broadcast()
}

func (p *Proc) unpoison() {
	p.mu.Lock()
	p.poisoned = false
	p.waitKind = waitNone
	p.mu.Unlock()
}

// barrier is a reusable counting barrier.
type barrier struct {
	mu       sync.Mutex
	cond     *sync.Cond
	n        int
	arrived  int
	epoch    int
	poisoned bool
	parked   *atomic.Int64 // the machine's parked counter
	progress *atomic.Int64 // the machine's progress counter
}

func newBarrier(n int, parked, progress *atomic.Int64) *barrier {
	b := &barrier{n: n, parked: parked, progress: progress}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) await() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.poisoned {
		panic(poisonError("machine: peer processor panicked at barrier"))
	}
	epoch := b.epoch
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		b.epoch++
		b.cond.Broadcast()
		return
	}
	for b.epoch == epoch && !b.poisoned {
		b.parked.Add(1)
		b.cond.Wait()
		b.parked.Add(-1)
		b.progress.Add(1)
	}
	if b.poisoned {
		panic(poisonError("machine: peer processor panicked at barrier"))
	}
}

func (b *barrier) poison() {
	b.mu.Lock()
	b.poisoned = true
	b.mu.Unlock()
	b.cond.Broadcast()
}

func (b *barrier) reset() {
	b.mu.Lock()
	b.poisoned = false
	b.arrived = 0
	b.mu.Unlock()
}
