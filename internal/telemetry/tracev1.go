package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// TraceSchema identifies the tracer's self-describing JSON export. The
// Chrome trace_event export is for viewers (chrome://tracing,
// Perfetto); trace/v1 is for tools — it round-trips every Event field
// (including the message sequence numbers analysis needs) and carries
// the overwrite count so a consumer can tell a complete trace from a
// truncated one.
const TraceSchema = "trace/v1"

// TraceDoc is the trace/v1 JSON document: the tracer's identity plus
// every retained event, oldest first per ring, host ring last.
type TraceDoc struct {
	Schema   string       `json:"schema"`
	Ranks    int          `json:"ranks"`
	Capacity int          `json:"capacity"` // per-rank ring capacity
	Dropped  int64        `json:"dropped"`  // events overwritten because a ring was full
	Events   []TraceEvent `json:"events"`
}

// TraceEvent is the wire form of Event: kinds by name, every field
// explicit (peer -1 means "no counterpart", seq 0 "no sequence
// number"). Times are nanoseconds since the tracer's epoch.
//
// Request-scoped spans additionally carry their identity as hex strings
// — Trace is the 32-digit trace ID, Span/Parent/Link 16-digit span IDs
// — rather than JSON numbers, because span IDs use the full uint64
// range and would lose precision in consumers that read JSON numbers as
// float64.
type TraceEvent struct {
	Kind   string `json:"kind"`
	Name   string `json:"name"`
	Rank   int32  `json:"rank"`
	Peer   int32  `json:"peer"`
	Bytes  int64  `json:"bytes,omitempty"`
	Seq    int64  `json:"seq,omitempty"`
	Start  int64  `json:"start"`
	Dur    int64  `json:"dur"`
	Trace  string `json:"trace,omitempty"`
	Span   string `json:"span,omitempty"`
	Parent string `json:"parent,omitempty"`
	Link   string `json:"link,omitempty"`
}

// TraceDoc captures the tracer's retained events as a trace/v1
// document.
func (t *Tracer) TraceDoc() TraceDoc {
	events := t.Events()
	doc := TraceDoc{
		Schema:   TraceSchema,
		Ranks:    t.rings.ranks,
		Capacity: t.rings.capacity(),
		Dropped:  t.Dropped(),
		Events:   make([]TraceEvent, len(events)),
	}
	for i, e := range events {
		we := TraceEvent{
			Kind: e.Kind.String(), Name: e.Name, Rank: e.Rank, Peer: e.Peer,
			Bytes: e.Bytes, Seq: e.Seq, Start: e.Start, Dur: e.Dur,
		}
		if e.TraceHi|e.TraceLo != 0 {
			we.Trace = SpanContext{TraceHi: e.TraceHi, TraceLo: e.TraceLo}.TraceID()
		}
		if e.Span != 0 {
			we.Span = SpanIDString(e.Span)
		}
		if e.Parent != 0 {
			we.Parent = SpanIDString(e.Parent)
		}
		if e.Link != 0 {
			we.Link = SpanIDString(e.Link)
		}
		doc.Events[i] = we
	}
	return doc
}

// WriteTraceV1 writes the retained events as a trace/v1 JSON document.
func (t *Tracer) WriteTraceV1(w io.Writer) error {
	data, err := json.Marshal(t.TraceDoc())
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// ReadTraceV1 parses a trace/v1 document, validating the schema tag and
// every event kind.
func ReadTraceV1(r io.Reader) (*TraceDoc, error) {
	var doc TraceDoc
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("telemetry: parse trace: %w", err)
	}
	if doc.Schema != TraceSchema {
		return nil, fmt.Errorf("telemetry: trace schema %q, want %q", doc.Schema, TraceSchema)
	}
	for i, e := range doc.Events {
		if _, ok := KindFromString(e.Kind); !ok {
			return nil, fmt.Errorf("telemetry: event %d has unknown kind %q", i, e.Kind)
		}
		if e.Trace != "" && (len(e.Trace) != 32 || !isHex(e.Trace)) {
			return nil, fmt.Errorf("telemetry: event %d has malformed trace ID %q", i, e.Trace)
		}
		for _, id := range [...]string{e.Span, e.Parent, e.Link} {
			if id != "" && (len(id) != 16 || !isHex(id)) {
				return nil, fmt.Errorf("telemetry: event %d has malformed span ID %q", i, id)
			}
		}
	}
	return &doc, nil
}

// RuntimeEvents converts the document's wire events back to Events.
// Events with an unknown kind (a newer producer) are skipped.
func (d *TraceDoc) RuntimeEvents() []Event {
	out := make([]Event, 0, len(d.Events))
	for _, e := range d.Events {
		k, ok := KindFromString(e.Kind)
		if !ok {
			continue
		}
		re := Event{
			Kind: k, Name: e.Name, Rank: e.Rank, Peer: e.Peer,
			Bytes: e.Bytes, Seq: e.Seq, Start: e.Start, Dur: e.Dur,
		}
		if len(e.Trace) == 32 {
			re.TraceHi, _ = strconv.ParseUint(e.Trace[:16], 16, 64)
			re.TraceLo, _ = strconv.ParseUint(e.Trace[16:], 16, 64)
		}
		if len(e.Span) == 16 {
			re.Span, _ = strconv.ParseUint(e.Span, 16, 64)
		}
		if len(e.Parent) == 16 {
			re.Parent, _ = strconv.ParseUint(e.Parent, 16, 64)
		}
		if len(e.Link) == 16 {
			re.Link, _ = strconv.ParseUint(e.Link, 16, 64)
		}
		out = append(out, re)
	}
	return out
}
