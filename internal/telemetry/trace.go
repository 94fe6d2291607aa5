package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"
)

// Kind classifies a trace event. Every kind carries a duration: for
// sends it is the (short) time spent delivering into the destination
// mailbox, for receives and barriers the time spent blocked waiting.
type Kind uint8

const (
	KindSpan    Kind = iota // a named region of work (plan build, execute, exchange)
	KindSend                // point-to-point send: Peer is the destination, Bytes the payload
	KindRecv                // point-to-point receive: Dur is the time blocked waiting
	KindBarrier             // barrier wait
	KindReduce              // collective operation (reduce, allreduce, bcast, gather)
)

// String returns the Chrome-trace category name for the kind.
func (k Kind) String() string {
	switch k {
	case KindSpan:
		return "span"
	case KindSend:
		return "send"
	case KindRecv:
		return "recv"
	case KindBarrier:
		return "barrier"
	case KindReduce:
		return "reduce"
	}
	return "unknown"
}

// KindFromString parses a category name produced by Kind.String.
func KindFromString(s string) (Kind, bool) {
	switch s {
	case "span":
		return KindSpan, true
	case "send":
		return KindSend, true
	case "recv":
		return KindRecv, true
	case "barrier":
		return KindBarrier, true
	case "reduce":
		return KindReduce, true
	}
	return KindSpan, false
}

// HostRank is the timeline for work that happens outside any SPMD body:
// plan construction, cache fills, driver code.
const HostRank = -1

// Event is one record on a rank's timeline. Start and Dur are
// nanoseconds since the tracer's epoch; Dur 0 marks an instant. Peer -1
// means no counterpart.
//
// For KindSend and KindRecv, Seq is the per-(sender, receiver, tag)
// FIFO sequence number the machine assigned to the message (first
// message is 1; 0 means "unknown", e.g. a trace recorded before
// sequence numbers existed). A send and a recv with equal
// (src, dst, name, seq) describe the same message, which is how the
// trace-analysis layer stitches per-rank timelines into a causal
// happens-before graph.
// For KindSpan, the TraceHi/TraceLo/Span/Parent/Link fields carry the
// W3C-style request-trace identity recorded by the Span API (span.go):
// a 128-bit trace ID, this span's 64-bit ID, its parent span within the
// same trace, and an optional cross-trace causal link (a singleflight
// waiter links to the winning build's span). All five are 0 for events
// that are not request-scoped.
type Event struct {
	Kind    Kind
	Name    string
	Rank    int32
	Peer    int32
	Bytes   int64
	Seq     int64
	Start   int64
	Dur     int64
	TraceHi uint64
	TraceLo uint64
	Span    uint64
	Parent  uint64
	Link    uint64
}

// MessagePair links a send event to its matching recv event by index
// into the slice passed to MatchMessages.
type MessagePair struct {
	Send, Recv int
}

// MatchMessages pairs send events with the recv events that consumed
// them, keyed by (src, dst, tag, seq). Events with Seq ≤ 0 are skipped
// (no sequence information). When a key occurs more than once — e.g. a
// trace spanning several machines, or a duplicated message under fault
// injection — occurrences are paired in timestamp order. Unmatched
// events (the counterpart was overwritten in its ring, or the message
// was dropped) are simply absent from the result.
func MatchMessages(events []Event) []MessagePair {
	type key struct {
		src, dst int32
		tag      string
		seq      int64
	}
	sends := map[key][]int{}
	recvs := map[key][]int{}
	for i, e := range events {
		if e.Seq <= 0 {
			continue
		}
		switch e.Kind {
		case KindSend:
			k := key{src: e.Rank, dst: e.Peer, tag: e.Name, seq: e.Seq}
			sends[k] = append(sends[k], i)
		case KindRecv:
			k := key{src: e.Peer, dst: e.Rank, tag: e.Name, seq: e.Seq}
			recvs[k] = append(recvs[k], i)
		}
	}
	var pairs []MessagePair
	for k, ss := range sends {
		rs := recvs[k]
		if len(rs) == 0 {
			continue
		}
		byStart := func(idx []int) {
			sort.Slice(idx, func(a, b int) bool { return events[idx[a]].Start < events[idx[b]].Start })
		}
		byStart(ss)
		byStart(rs)
		n := len(ss)
		if len(rs) < n {
			n = len(rs)
		}
		for i := 0; i < n; i++ {
			pairs = append(pairs, MessagePair{Send: ss[i], Recv: rs[i]})
		}
	}
	sort.Slice(pairs, func(a, b int) bool {
		if sa, sb := events[pairs[a].Send].Start, events[pairs[b].Send].Start; sa != sb {
			return sa < sb
		}
		return pairs[a].Send < pairs[b].Send
	})
	return pairs
}

// Tracer records SPMD events into fixed-capacity per-rank ring buffers:
// one ring per processor rank plus one for HostRank. Recording takes the
// ring's mutex and never allocates; when a ring is full the oldest
// events are overwritten.
type Tracer struct {
	epoch time.Time
	rings rankRings[Event]
}

// NewTracer creates a tracer for the given number of processor ranks
// with capacity events retained per rank (minimum 16).
func NewTracer(ranks, capacity int) *Tracer {
	return &Tracer{epoch: time.Now(), rings: newRankRings[Event](ranks, max(capacity, 16))}
}

// Ranks returns the number of processor timelines (excluding the host).
func (t *Tracer) Ranks() int { return t.rings.ranks }

// Now returns nanoseconds since the tracer's epoch — the Start value for
// events recorded now.
func (t *Tracer) Now() int64 { return time.Since(t.epoch).Nanoseconds() }

// Record appends e to the ring of e.Rank. It never allocates; callers on
// hot paths pass string constants as Name.
func (t *Tracer) Record(e Event) { t.rings.push(e.Rank, e) }

// EndSpan records a KindSpan event on rank's timeline that began at
// start (a value from Now) and ends now.
func (t *Tracer) EndSpan(rank int32, name string, start int64) {
	t.Record(Event{Kind: KindSpan, Name: name, Rank: rank, Peer: -1, Start: start, Dur: t.Now() - start})
}

// Events returns every retained event, oldest first per ring, host ring
// last. Export-path only; allocates.
func (t *Tracer) Events() []Event {
	var out []Event
	for i := range t.rings.rings {
		out = t.rings.snapshot(out, i)
	}
	return out
}

// Dropped returns how many events were overwritten because their ring
// was full.
func (t *Tracer) Dropped() int64 { return t.rings.dropped() }

// active is the process-wide tracer consulted by the instrumented
// packages; nil (the default) disables tracing with a single atomic
// load on the hot path.
var active atomic.Pointer[Tracer]

// DroppedGauge is the computed gauge StartTracing registers in the
// default registry: how many trace events the active tracer has
// overwritten because a ring was full. A nonzero value means exported
// traces are truncated and analysis built on them (critical path,
// breakdowns) is skewed toward the end of the run.
const DroppedGauge = "trace.dropped_events"

// StartTracing installs a new process-wide tracer for ranks processor
// timelines with the given per-rank event capacity, and returns it. The
// tracer's overwrite count is published as the computed gauge
// "trace.dropped_events" in the default registry until StopTracing.
func StartTracing(ranks, capacity int) *Tracer {
	t := NewTracer(ranks, capacity)
	active.Store(t)
	Default().UnregisterGaugeFunc(DroppedGauge)
	_ = Default().RegisterGaugeFunc(DroppedGauge, func() int64 {
		if tr := active.Load(); tr != nil {
			return tr.Dropped()
		}
		return t.Dropped() // stopped: keep reporting the final count
	})
	return t
}

// StopTracing uninstalls and returns the process-wide tracer (nil if
// none was active). The returned tracer can still be exported.
func StopTracing() *Tracer {
	return active.Swap(nil)
}

// ActiveTracer returns the process-wide tracer, or nil when tracing is
// off. Instrumented code checks for nil before doing any timing work.
func ActiveTracer() *Tracer { return active.Load() }

// chromeEvent is one entry of the Chrome trace_event JSON array
// (ph "X" = complete event with duration, "i" = instant, "M" =
// metadata). Timestamps are microseconds.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	ID    int            `json:"id,omitempty"`
	Bp    string         `json:"bp,omitempty"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// WriteChromeTrace writes every retained event as a Chrome trace_event
// JSON document loadable in chrome://tracing and Perfetto: one thread
// per rank (plus "host"), complete events for every kind (sends carry
// their short delivery duration, zero-duration events render as
// instants), with peer, byte counts and message sequence numbers in
// args. Matched send→recv pairs additionally emit flow events
// (ph "s"/"f") so viewers draw an arrow from each send slice to the
// receive it unblocked. The document's otherData block records the rank
// count and the number of overwritten ring events, which the
// trace-analysis loader reads back.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	events := t.Events()
	sort.SliceStable(events, func(i, j int) bool { return events[i].Start < events[j].Start })

	var out []chromeEvent
	// Thread names first, so viewers label every timeline even when a
	// rank recorded nothing.
	out = append(out, chromeEvent{
		Name: "process_name", Ph: "M", Pid: 0, Tid: 0,
		Args: map[string]any{"name": "spmd machine"},
	})
	for r := 0; r <= t.rings.ranks; r++ {
		name := fmt.Sprintf("rank %d", r)
		if r == t.rings.ranks {
			name = "host"
		}
		out = append(out, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: r,
			Args: map[string]any{"name": name},
		})
	}
	for _, e := range events {
		ce := chromeEvent{
			Name: e.Name,
			Cat:  e.Kind.String(),
			Ts:   float64(e.Start) / 1e3,
			Pid:  0,
			Tid:  t.rings.index(e.Rank),
		}
		if e.Peer >= 0 || e.Bytes > 0 || e.Seq > 0 || e.Span != 0 {
			ce.Args = map[string]any{}
			if e.Peer >= 0 {
				ce.Args["peer"] = e.Peer
			}
			if e.Bytes > 0 {
				ce.Args["bytes"] = e.Bytes
			}
			if e.Seq > 0 {
				ce.Args["seq"] = e.Seq
			}
			// Request-scoped span identity, as the same hex strings the
			// trace/v1 export and traceparent headers use.
			if e.Span != 0 {
				ce.Args["trace"] = SpanContext{TraceHi: e.TraceHi, TraceLo: e.TraceLo}.TraceID()
				ce.Args["span"] = SpanIDString(e.Span)
				if e.Parent != 0 {
					ce.Args["parent"] = SpanIDString(e.Parent)
				}
				if e.Link != 0 {
					ce.Args["link"] = SpanIDString(e.Link)
				}
			}
		}
		if e.Dur == 0 {
			ce.Ph = "i"
			ce.Scope = "t"
		} else {
			ce.Ph = "X"
			ce.Dur = float64(e.Dur) / 1e3
		}
		out = append(out, ce)
	}
	// Flow events: one s/f pair per matched message, anchored inside the
	// send and recv slices so Perfetto binds the arrow to them ("bp":"e"
	// attaches the finish to the enclosing slice, i.e. the recv wait).
	for flowID, pr := range MatchMessages(events) {
		s, r := events[pr.Send], events[pr.Recv]
		out = append(out,
			chromeEvent{
				Name: s.Name, Cat: "msg", Ph: "s", ID: flowID + 1,
				Ts: float64(s.Start+s.Dur/2) / 1e3, Pid: 0, Tid: t.rings.index(s.Rank),
			},
			chromeEvent{
				Name: s.Name, Cat: "msg", Ph: "f", Bp: "e", ID: flowID + 1,
				Ts: float64(r.Start+r.Dur/2) / 1e3, Pid: 0, Tid: t.rings.index(r.Rank),
			})
	}
	doc := chromeTrace{
		TraceEvents:     out,
		DisplayTimeUnit: "ns",
		OtherData: map[string]any{
			"ranks":   t.rings.ranks,
			"dropped": t.Dropped(),
		},
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// WriteSummary writes a plain-text per-rank digest of the retained
// events: message/barrier/collective counts, bytes sent, and the total
// time attributed to each span name.
func (t *Tracer) WriteSummary(w io.Writer) error {
	events := t.Events()
	type rankAgg struct {
		sends, recvs, barriers, reduces int64
		bytesOut                        int64
		recvWaitNs, barrierWaitNs       int64
	}
	aggs := make([]rankAgg, len(t.rings.rings))
	spanNs := map[string]int64{}
	spanCount := map[string]int64{}
	for _, e := range events {
		a := &aggs[t.rings.index(e.Rank)]
		switch e.Kind {
		case KindSend:
			a.sends++
			a.bytesOut += e.Bytes
		case KindRecv:
			a.recvs++
			a.recvWaitNs += e.Dur
		case KindBarrier:
			a.barriers++
			a.barrierWaitNs += e.Dur
		case KindReduce:
			a.reduces++
		case KindSpan:
			spanNs[e.Name] += e.Dur
			spanCount[e.Name]++
		}
	}
	var err error
	pr := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	pr("rank   sends  recvs  barriers  collectives  bytes_out  recv_wait  barrier_wait\n")
	for r, a := range aggs {
		label := fmt.Sprintf("%4d", r)
		if r == t.rings.ranks {
			if a == (rankAgg{}) {
				continue // host rarely sends; skip an all-zero line
			}
			label = "host"
		}
		pr("%s  %6d %6d %9d %12d %10d %10s %13s\n",
			label, a.sends, a.recvs, a.barriers, a.reduces, a.bytesOut,
			time.Duration(a.recvWaitNs), time.Duration(a.barrierWaitNs))
	}
	if len(spanNs) > 0 {
		pr("spans (total time by name, all ranks):\n")
		names := make([]string, 0, len(spanNs))
		for name := range spanNs {
			names = append(names, name)
		}
		sort.Slice(names, func(i, j int) bool { return spanNs[names[i]] > spanNs[names[j]] })
		for _, name := range names {
			pr("  %-32s %6d× %12s\n", name, spanCount[name], time.Duration(spanNs[name]))
		}
	}
	if d := t.Dropped(); d > 0 {
		pr("(%d events dropped: ring buffers full)\n", d)
	}
	return err
}
