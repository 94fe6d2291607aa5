// Package machine simulates a distributed-memory multiprocessor: the
// substrate the paper's runtime routines execute on. The original
// evaluation ran on a 32-node Intel iPSC/860 hypercube; here each
// processor is a coroutine with a private mailbox, and Run resumes the
// processors one at a time on the calling goroutine (see DESIGN.md,
// Substitutions). A processor runs until it returns or blocks in Recv
// or Barrier, which yield back to Run's scheduler (sched.go).
//
// The programming model is SPMD: Machine.Run runs the same body on
// every processor and returns when all of them have finished. Within
// the body, a *Proc provides its rank and the communication primitives.
// A body may block only in those primitives: waiting on a channel,
// lock or WaitGroup that another processor of the same Run releases
// would stall the one thread every processor shares.
//
// The machine also carries a robustness layer (see README, Robustness):
// exact deadlock detection with per-rank wait-site diagnostics and
// deterministic seeded fault injection (faults.go).
package machine

import (
	"fmt"
	"sync"
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
	nprocs int
	procs  []*Proc

	// arrived counts processors waiting at the current barrier. Like the
	// mailboxes it is touched only by the processor Run is resuming.
	arrived int

	// delayed holds fault-delayed messages, oldest first. The scheduler
	// delivers the oldest when no processor can run (idle), and Run
	// delivers any still held before it returns (release).
	delayed []Message

	// runMu serializes Run calls: concurrent runs would share the
	// processors' mailboxes and read each other's messages.
	runMu sync.Mutex

	faults   *FaultPlan
	faultMu  sync.Mutex
	faultLog []FaultEvent
}

// New creates a machine with p processors (p ≥ 1).
func New(p int) (*Machine, error) {
	if p < 1 {
		return nil, fmt.Errorf("machine: processor count %d < 1", p)
	}
	m := &Machine{nprocs: p}
	m.procs = make([]*Proc, p)
	for i := range m.procs {
		m.procs[i] = &Proc{rank: i, m: m}
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

// SetFaults arms plan for subsequent Run calls (nil disarms). The plan's
// per-rank random streams and the fault-event log reset at the start of
// every Run, so a given plan and SPMD body reproduce the identical
// decision sequence on every run.
func (m *Machine) SetFaults(plan *FaultPlan) { m.faults = plan }

// Run executes body on every processor (SPMD) and returns when all
// instances have returned. It may be called repeatedly; mailboxes
// persist across runs, so a protocol may span multiple Run calls.
//
// The processors run as coroutines on the calling goroutine, resumed in
// rank order whenever their wait can complete; a fault-free run of a
// deterministic body therefore interleaves identically every time.
//
// Concurrent Run calls on one machine execute one at a time: Run holds
// a per-machine lock for its whole duration and releases it on every
// return, including a re-raised panic. A body must not call Run on its
// own machine.
//
// A panic in any body poisons every other processor, so each one fails
// at its next wait, and is re-raised on the caller once all bodies have
// finished; bodies should not panic as part of normal operation.
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
	for _, p := range m.procs {
		p.co = getCoro(p, body)
		p.ready, p.exited = true, false
	}
	defer m.release()
	m.schedule()
	// Report an original panic in preference to the poisonError cascades it
	// induced in blocked peers.
	var firstRank = -1
	var firstVal any
	for _, p := range m.procs {
		r := p.panicVal
		if r == nil {
			continue
		}
		if _, induced := r.(poisonError); !induced {
			panic(fmt.Sprintf("machine: processor %d panicked: %v", p.rank, r))
		}
		if firstRank < 0 {
			firstRank, firstVal = p.rank, r
		}
	}
	if firstRank >= 0 {
		panic(fmt.Sprintf("machine: processor %d panicked: %v", firstRank, firstVal))
	}
}

// release restores the machine for subsequent runs and hands the run's
// coroutines back to the pool. It runs on every return from Run. It
// delivers every fault-delayed message still held, so a delay is never
// a drop: what the body did not receive waits in the mailbox. A
// coroutine whose body never finished (the caller is unwinding from a
// runtime.Goexit in some body) is stopped instead of pooled.
func (m *Machine) release() {
	m.arrived = 0
	for _, msg := range m.delayed {
		m.deliver(msg, false)
	}
	clear(m.delayed)
	m.delayed = m.delayed[:0]
	for _, p := range m.procs {
		if p.exited {
			putCoro(p.co)
		} else {
			p.co.stop()
		}
		p.co, p.panicVal = nil, nil
		p.ready, p.poisoned, p.poisonMsg, p.waitKind = false, false, "", waitNone
	}
}

// poisonError marks panics induced in processors that were blocked when a
// peer failed, so Run can report the root cause instead.
type poisonError string

func (e poisonError) Error() string { return string(e) }

// Proc is one simulated processor: a rank plus communication state.
// Everything but the stats counters is touched only by the goroutine
// running Run and the coroutines it resumes, one at a time.
type Proc struct {
	rank int
	m    *Machine

	mailbox   []Message
	poisoned  bool
	poisonMsg string

	// Scheduling state for the current Run: the coroutine running this
	// processor's body, whether it can make progress if resumed, whether
	// its body has returned, and what it panicked with.
	co       *coro
	ready    bool
	exited   bool
	panicVal any

	// The wait site this processor is parked in: what wakes it, and
	// what the deadlock report names.
	waitKind waitKind
	waitFrom int
	waitTag  string

	// Fault-injection state (reset by Run): the machine-op counter crash
	// steps index into, and the rank's private decision stream.
	ops   int64
	frand *faultRand

	// seqs assigns per-(destination, tag) FIFO sequence numbers to sent
	// messages. Persists across Run calls (like mailboxes) so numbers
	// stay unique for the machine's lifetime.
	seqs map[seqKey]int64

	stats statCounters
}

type waitKind uint8

const (
	waitNone waitKind = iota
	waitRecv
	waitBarrier
)

// waitSite formats the processor's current wait site.
func (p *Proc) waitSite() string {
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
	msg := Message{From: p.rank, To: to, Tag: tag, Seq: p.nextSeq(to, tag), Data: data}
	tr := telemetry.ActiveTracer()
	var t0 int64
	if tr != nil {
		t0 = tr.Now()
	}
	if fp := p.m.faults; fp == nil || !p.injectSendFault(fp, op, msg) {
		p.m.deliver(msg, false)
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
// with the given tag (first message is 1).
func (p *Proc) nextSeq(to int, tag string) int64 {
	if p.seqs == nil {
		p.seqs = make(map[seqKey]int64)
	}
	k := seqKey{to: to, tag: tag}
	p.seqs[k]++
	return p.seqs[k]
}

// deliver appends msg to its receiver's mailbox (or prepends it when
// front is set, the reorder fault) and marks the receiver ready if it
// is parked waiting for exactly this source and tag.
func (m *Machine) deliver(msg Message, front bool) {
	dst := m.procs[msg.To]
	if front && len(dst.mailbox) > 0 {
		dst.mailbox = append(dst.mailbox, Message{})
		copy(dst.mailbox[1:], dst.mailbox)
		dst.mailbox[0] = msg
	} else {
		dst.mailbox = append(dst.mailbox, msg)
	}
	if dst.waitKind == waitRecv && dst.waitFrom == msg.From && dst.waitTag == msg.Tag {
		dst.ready = true
	}
}

// Recv blocks until a message with the given source and tag arrives and
// returns it. Messages from the same sender with the same tag are
// delivered in send order. The clock is read only if the processor
// parks; a message already in the mailbox records a zero wait.
func (p *Proc) Recv(from int, tag string) Message {
	p.faultStep()
	var start time.Time
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
				p.waitKind = waitNone
				p.recorded(msg, start)
				return msg
			}
		}
		if p.poisoned {
			panic(poisonError(p.poisonMsg))
		}
		if start.IsZero() {
			start = time.Now()
		}
		p.waitKind, p.waitFrom, p.waitTag = waitRecv, from, tag
		p.park()
	}
}

// recorded accounts one delivered message on the receive side: the
// per-processor counters, the process-wide telemetry, and — when a
// tracer is active — a recv event whose duration is the time this
// processor spent parked since start (zero when it never parked).
func (p *Proc) recorded(msg Message, start time.Time) {
	wait := sinceParked(start)
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

// sinceParked returns the nanoseconds since start, or 0 when start is
// unset because the waiting processor never parked.
func sinceParked(start time.Time) int64 {
	if start.IsZero() {
		return 0
	}
	return time.Since(start).Nanoseconds()
}

// Barrier blocks until every processor has reached it. Like Recv it
// reads the clock only if it parks: the last arrival records a zero
// wait.
func (p *Proc) Barrier() {
	p.faultStep()
	if p.poisoned {
		panic(poisonError(p.poisonMsg))
	}
	m := p.m
	var start time.Time
	if m.arrived++; m.arrived == m.nprocs {
		// The last arrival releases everyone parked here.
		m.arrived = 0
		for _, q := range m.procs {
			if q.waitKind == waitBarrier {
				q.waitKind, q.ready = waitNone, true
			}
		}
	} else {
		start = time.Now()
		p.waitKind = waitBarrier
		for p.waitKind == waitBarrier {
			if p.poisoned {
				panic(poisonError(p.poisonMsg))
			}
			p.park()
		}
	}
	wait := sinceParked(start)
	telBarrierNs.Observe(wait)
	if tr := telemetry.ActiveTracer(); tr != nil {
		tr.Record(telemetry.Event{
			Kind: telemetry.KindBarrier, Name: "barrier", Rank: int32(p.rank),
			Peer: -1, Start: tr.Now() - wait, Dur: wait,
		})
	}
}
