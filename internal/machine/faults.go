package machine

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// faultRand is the per-rank decision stream. Decisions are drawn by the
// owning processor only, one per Send in program order, so a given
// (plan, SPMD body) pair reproduces the identical fault sequence on
// every run regardless of how the processors interleave.
type faultRand = rand.Rand

// FaultKind names one injected fault.
type FaultKind string

const (
	FaultDrop    FaultKind = "drop"    // message silently lost in transit
	FaultDup     FaultKind = "dup"     // message delivered twice
	FaultDelay   FaultKind = "delay"   // delivery deferred until no rank can run
	FaultReorder FaultKind = "reorder" // message jumps the mailbox queue
	FaultCrash   FaultKind = "crash"   // rank panics at a machine op
)

// FaultEvent records one injected fault: rank's op-th machine operation
// (sends, receives and barriers count in program order) was perturbed.
type FaultEvent struct {
	Rank int
	Op   int64
	Kind FaultKind
	To   int    // destination rank for message faults, -1 for crash
	Tag  string // message tag for message faults
}

func (e FaultEvent) String() string {
	if e.Kind == FaultCrash {
		return fmt.Sprintf("rank %d op %d: crash", e.Rank, e.Op)
	}
	return fmt.Sprintf("rank %d op %d: %s -> %d tag=%q", e.Rank, e.Op, e.Kind, e.To, e.Tag)
}

// FaultPlan is a seeded, reproducible fault-injection plan applied
// inside Send/Recv, so every layer built on the machine (comm, the
// collectives, hpf) is exercised unmodified. Probabilities are
// per-Send and must sum to at most 1; at most one fault is injected
// per message.
//
// A delayed message is held by the machine and delivered, oldest first,
// whenever no processor can run; any still held when Run returns is
// delivered then, so a delay reorders messages but never loses one.
//
// Caveat: a duplicated payload is deep-copied (the pooled-buffer
// ownership convention survives), but the duplicate, like a delayed
// message, stays in the mailbox if the program never matches it —
// chaos plans should use fresh machines per experiment.
type FaultPlan struct {
	Seed    int64
	Drop    float64 // P(message dropped)
	Dup     float64 // P(message delivered twice)
	Delay   float64 // P(delivery deferred until no rank can run)
	Reorder float64 // P(message prepended to the mailbox)

	CrashRank int   // rank to crash, -1 (or out of range) = never
	CrashStep int64 // crash at that rank's CrashStep-th machine op
}

// Validate reports whether the plan's parameters are usable.
func (fp *FaultPlan) Validate() error {
	for _, pr := range []struct {
		name string
		v    float64
	}{{"drop", fp.Drop}, {"dup", fp.Dup}, {"delay", fp.Delay}, {"reorder", fp.Reorder}} {
		// Written as a negated range check so NaN, which fails every
		// comparison, is rejected instead of silently disabling the fault.
		if !(pr.v >= 0 && pr.v <= 1) {
			return fmt.Errorf("machine: fault plan: %s probability %v outside [0, 1]", pr.name, pr.v)
		}
	}
	if sum := fp.Drop + fp.Dup + fp.Delay + fp.Reorder; !(sum <= 1) {
		return fmt.Errorf("machine: fault plan: probabilities sum to %v > 1", sum)
	}
	if fp.CrashStep < 0 {
		return fmt.Errorf("machine: fault plan: crash step %d < 0", fp.CrashStep)
	}
	return nil
}

// rankRand derives rank's private decision stream from the plan seed
// (splitmix-style mixing keeps adjacent seeds and ranks uncorrelated).
func (fp *FaultPlan) rankRand(rank int) *faultRand {
	z := uint64(fp.Seed) + uint64(rank+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return rand.New(rand.NewSource(int64(z)))
}

// ParseFaultSpec parses the CLI fault grammar: a comma-separated list of
//
//	seed=<int>           decision-stream seed (default 1)
//	drop=<prob>          drop probability
//	dup=<prob>           duplication probability
//	reorder=<prob>       reorder probability
//	delay=<prob>         delay probability
//	crash=<rank>@<step>  crash rank at its <step>-th machine op
//
// Example: "seed=42,drop=0.01,delay=0.05,crash=3@100".
func ParseFaultSpec(spec string) (*FaultPlan, error) {
	fp := &FaultPlan{Seed: 1, CrashRank: -1}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("machine: fault spec %q: %q is not key=value", spec, field)
		}
		var err error
		switch key {
		case "seed":
			fp.Seed, err = strconv.ParseInt(val, 10, 64)
		case "drop":
			fp.Drop, err = strconv.ParseFloat(val, 64)
		case "dup":
			fp.Dup, err = strconv.ParseFloat(val, 64)
		case "reorder":
			fp.Reorder, err = strconv.ParseFloat(val, 64)
		case "delay":
			fp.Delay, err = strconv.ParseFloat(val, 64)
		case "crash":
			rank, step, hasStep := strings.Cut(val, "@")
			var r int64
			if r, err = strconv.ParseInt(rank, 10, 32); err == nil {
				fp.CrashRank = int(r)
				if hasStep {
					fp.CrashStep, err = strconv.ParseInt(step, 10, 64)
				}
			}
		default:
			return nil, fmt.Errorf("machine: fault spec %q: unknown key %q", spec, key)
		}
		if err != nil {
			return nil, fmt.Errorf("machine: fault spec %q: field %q: %v", spec, field, err)
		}
	}
	if err := fp.Validate(); err != nil {
		return nil, fmt.Errorf("machine: fault spec %q: %v", spec, err)
	}
	return fp, nil
}

// recordFault appends one injected-fault event to the run's log.
func (m *Machine) recordFault(e FaultEvent) {
	m.faultMu.Lock()
	m.faultLog = append(m.faultLog, e)
	m.faultMu.Unlock()
}

// FaultEvents returns the faults injected during the most recent Run,
// sorted by (rank, op). Because decisions are drawn per rank in program
// order, the sorted sequence is identical across runs of the same plan
// and body — the reproducibility contract chaos tests assert.
func (m *Machine) FaultEvents() []FaultEvent {
	m.faultMu.Lock()
	out := append([]FaultEvent(nil), m.faultLog...)
	m.faultMu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rank != out[j].Rank {
			return out[i].Rank < out[j].Rank
		}
		return out[i].Op < out[j].Op
	})
	return out
}

// FaultSummary formats a one-line per-kind count of the most recent
// run's injected faults.
func (m *Machine) FaultSummary() string {
	counts := map[FaultKind]int{}
	for _, e := range m.FaultEvents() {
		counts[e.Kind]++
	}
	total := 0
	parts := make([]string, 0, len(counts))
	for _, k := range []FaultKind{FaultDrop, FaultDup, FaultDelay, FaultReorder, FaultCrash} {
		if n := counts[k]; n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", k, n))
			total += n
		}
	}
	if total == 0 {
		return "faults: none injected"
	}
	return fmt.Sprintf("faults: injected %d (%s)", total, strings.Join(parts, " "))
}

// faultStep counts one machine operation (send, receive or barrier) on
// this processor and crashes it if the plan says so. Returns the op
// number for fault decisions. Called by the owning processor only.
func (p *Proc) faultStep() int64 {
	fp := p.m.faults
	if fp == nil {
		return 0
	}
	op := p.ops
	p.ops++
	if fp.CrashRank == p.rank && op == fp.CrashStep {
		p.m.recordFault(FaultEvent{Rank: p.rank, Op: op, Kind: FaultCrash, To: -1})
		telFaultsCrashes.Inc()
		panic(fmt.Sprintf("machine: fault injection: rank %d crashed at step %d (seed %d)",
			p.rank, op, fp.Seed))
	}
	return op
}

// injectSendFault draws this send's fault decision and applies it.
// Returns true when delivery was handled here (dropped, delayed,
// duplicated or reordered); false means the caller delivers normally.
func (p *Proc) injectSendFault(fp *FaultPlan, op int64, msg Message) bool {
	if p.frand == nil {
		// Sends outside Run (no decision stream) are delivered untouched.
		return false
	}
	u := p.frand.Float64()
	switch {
	case u < fp.Drop:
		p.m.recordFault(FaultEvent{Rank: p.rank, Op: op, Kind: FaultDrop, To: msg.To, Tag: msg.Tag})
		telFaultsDropped.Inc()
		return true
	case u < fp.Drop+fp.Dup:
		p.m.recordFault(FaultEvent{Rank: p.rank, Op: op, Kind: FaultDup, To: msg.To, Tag: msg.Tag})
		telFaultsDuplicated.Inc()
		// The duplicate owns a fresh payload slice, copied before the
		// original is delivered: the receiver may recycle the original's
		// buffer (machine.PutBuf) as soon as it arrives, and another
		// sender may already be refilling it.
		dup := msg
		dup.Data = append([]float64(nil), msg.Data...)
		p.m.deliver(msg, false)
		p.m.deliver(dup, false)
		return true
	case u < fp.Drop+fp.Dup+fp.Delay:
		p.m.recordFault(FaultEvent{Rank: p.rank, Op: op, Kind: FaultDelay, To: msg.To, Tag: msg.Tag})
		telFaultsDelayed.Inc()
		p.m.delayed = append(p.m.delayed, msg)
		return true
	case u < fp.Drop+fp.Dup+fp.Delay+fp.Reorder:
		p.m.recordFault(FaultEvent{Rank: p.rank, Op: op, Kind: FaultReorder, To: msg.To, Tag: msg.Tag})
		telFaultsReordered.Inc()
		p.m.deliver(msg, true)
		return true
	}
	return false
}
