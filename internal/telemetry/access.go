package telemetry

// Memory-access tracing: the address-level counterpart of the event
// tracer. The paper's object of study is the *memory access sequence*
// itself — the per-processor order of local addresses a node loop
// touches — yet the event tracer only sees messages and spans. The
// AccessRecorder captures the sequence: every instrumented kernel walk,
// section op and pack/unpack loop can stream its (addr, rw, step)
// records into per-rank buffers, exported as a self-describing
// accesstrace/v1 JSON document and consumed by internal/reuse and
// cmd/hpfmem for reuse-distance locality analysis.
//
// The recorder follows the tracer's guard discipline: a process-wide
// atomic pointer that is nil when recording is off, so the disabled hot
// path costs one atomic load and zero allocations. Recording itself
// writes fixed-size records into preallocated per-rank buffers (no
// allocation); per-op metadata (step labels) may allocate, but only
// while recording is active.

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// AccessSchema identifies the access recorder's self-describing export.
const AccessSchema = "accesstrace/v1"

// AccessOp distinguishes loads from stores in the recorded sequence.
type AccessOp uint8

const (
	AccessRead  AccessOp = 0
	AccessWrite AccessOp = 1
)

func (op AccessOp) String() string {
	if op == AccessWrite {
		return "w"
	}
	return "r"
}

// Access is one record of the traced sequence: the local address a rank
// touched, whether it was read or written, and the step (one per
// instrumented operation, see BeginStep) it belongs to. Records are
// compact — 16 bytes — so long sequences stay cheap to retain.
type Access struct {
	Addr int64
	Step uint32
	Op   AccessOp
}

// AccessStep names one instrumented operation: every access recorded
// during it carries its Step number. Labels follow the convention
// "<package>.<op>[:<kernel-kind>]", e.g. "hpf.fill_section:unrolled" or
// "comm.pack", so locality reports can group by operation and by the
// node-code kernel that generated the addresses.
type AccessStep struct {
	Step  uint32 `json:"step"`
	Label string `json:"label"`
}

// AccessRecorder records per-rank memory access sequences. The host ring
// absorbs host-side or out-of-range records, exactly like the event
// tracer's host timeline.
type AccessRecorder struct {
	stepMu sync.Mutex
	step   uint32
	steps  []AccessStep

	rings rankRings[Access]
}

// NewAccessRecorder creates a recorder for the given number of ranks
// with capacity records retained per rank (minimum 64).
func NewAccessRecorder(ranks, capacity int) *AccessRecorder {
	return &AccessRecorder{rings: newRankRings[Access](ranks, max(capacity, 64))}
}

// Ranks returns the number of per-rank sequences (excluding the host
// overflow ring).
func (r *AccessRecorder) Ranks() int { return r.rings.ranks }

// BeginStep registers a new step with the given label and returns its
// number, to be passed to Record for every access of the operation.
// Step numbers start at 1; 0 means "no step".
func (r *AccessRecorder) BeginStep(label string) uint32 {
	r.stepMu.Lock()
	r.step++
	s := r.step
	r.steps = append(r.steps, AccessStep{Step: s, Label: label})
	r.stepMu.Unlock()
	return s
}

// Record appends one access to rank's sequence. It never allocates.
func (r *AccessRecorder) Record(rank int32, addr int64, op AccessOp, step uint32) {
	r.rings.push(rank, Access{Addr: addr, Step: step, Op: op})
}

// Dropped returns how many records were overwritten because a ring was
// full.
func (r *AccessRecorder) Dropped() int64 { return r.rings.dropped() }

// ---------------------------------------------------------------------
// The process-wide recorder guard, mirroring the event tracer's.

var activeAccess atomic.Pointer[AccessRecorder]

// StartAccessRecording installs a new process-wide access recorder for
// ranks sequences with the given per-rank capacity and returns it.
func StartAccessRecording(ranks, capacity int) *AccessRecorder {
	r := NewAccessRecorder(ranks, capacity)
	activeAccess.Store(r)
	return r
}

// StopAccessRecording uninstalls and returns the process-wide recorder
// (nil if none was active). The returned recorder can still be
// exported.
func StopAccessRecording() *AccessRecorder {
	return activeAccess.Swap(nil)
}

// ActiveAccessRecorder returns the process-wide recorder, or nil when
// access recording is off. Instrumented code checks for nil once per
// operation before doing any per-element work, so the disabled path is
// one atomic load.
func ActiveAccessRecorder() *AccessRecorder { return activeAccess.Load() }

// ---------------------------------------------------------------------
// accesstrace/v1 document.

// AccessRec is the wire form of one access.
type AccessRec struct {
	Addr  int64  `json:"addr"`
	Step  uint32 `json:"step,omitempty"`
	Write bool   `json:"write,omitempty"`
}

// RankAccesses is one rank's retained sequence, oldest first.
type RankAccesses struct {
	Rank     int32       `json:"rank"`
	Accesses []AccessRec `json:"accesses"`
}

// AccessDoc is the accesstrace/v1 document: recorder identity, the step
// table, and every retained record grouped by rank in recording order.
type AccessDoc struct {
	Schema  string         `json:"schema"`
	Ranks   int            `json:"ranks"`
	Sample  int64          `json:"sample"` // always 1: every access is kept
	Dropped int64          `json:"dropped"`
	Steps   []AccessStep   `json:"steps,omitempty"`
	Seqs    []RankAccesses `json:"sequences"`
}

// Doc captures the recorder's retained records as an accesstrace/v1
// document. Ranks that recorded nothing are omitted.
func (r *AccessRecorder) Doc() AccessDoc {
	doc := AccessDoc{
		Schema:  AccessSchema,
		Ranks:   r.rings.ranks,
		Sample:  1,
		Dropped: r.Dropped(),
	}
	r.stepMu.Lock()
	doc.Steps = append([]AccessStep(nil), r.steps...)
	r.stepMu.Unlock()
	var recs []Access
	for i := range r.rings.rings {
		recs = r.rings.snapshot(recs[:0], i)
		if len(recs) == 0 {
			continue
		}
		ra := RankAccesses{Rank: int32(i), Accesses: make([]AccessRec, len(recs))}
		if i == r.rings.ranks {
			ra.Rank = HostRank
		}
		for j, a := range recs {
			ra.Accesses[j] = AccessRec{Addr: a.Addr, Step: a.Step, Write: a.Op == AccessWrite}
		}
		doc.Seqs = append(doc.Seqs, ra)
	}
	return doc
}

// WriteJSON writes the retained records as an accesstrace/v1 JSON
// document.
func (r *AccessRecorder) WriteJSON(w io.Writer) error {
	data, err := json.Marshal(r.Doc())
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// ReadAccessTrace parses an accesstrace/v1 JSON document.
func ReadAccessTrace(r io.Reader) (*AccessDoc, error) {
	var doc AccessDoc
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("telemetry: parse access trace: %w", err)
	}
	if doc.Schema != AccessSchema {
		return nil, fmt.Errorf("telemetry: access trace schema %q, want %q", doc.Schema, AccessSchema)
	}
	return &doc, nil
}
