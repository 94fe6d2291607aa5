package telemetry

import (
	"context"
	"strconv"
	"sync/atomic"
	"time"
)

// Request-scoped spans.
//
// The SPMD tracer records per-rank timelines; a service like hpfd needs
// the orthogonal axis: one *request's* journey across goroutines —
// admission, singleflight, table build, kernel selection — stitched into
// a single causal trace. A Span is a named region of work carrying a
// W3C-trace-context identity (128-bit trace ID, 64-bit span ID, parent
// span ID) plus an optional cross-trace Link (a coalesced waiter links
// to the winning build's span). Spans record into the host ring of the
// process-wide tracer as ordinary KindSpan events, so every existing
// exporter — Chrome trace, trace/v1, /trace — carries them for free and
// hpfprof -serve reconstructs the request tree from the identity fields.
//
// When tracing is off (no active tracer) every operation here is a
// no-op that performs zero allocations — the same contract as the
// metrics record paths — so span instrumentation stays compiled into
// production request paths unconditionally.

// SpanContext is the identity of one span within one trace: the W3C
// trace-context triple minus the flags. The zero value means "no span".
type SpanContext struct {
	TraceHi, TraceLo uint64 // 128-bit trace ID, hi/lo halves
	Span             uint64 // 64-bit span ID
}

// Valid reports whether both the trace ID and span ID are nonzero —
// the W3C validity rule (all-zero IDs are forbidden).
func (sc SpanContext) Valid() bool {
	return sc.TraceHi|sc.TraceLo != 0 && sc.Span != 0
}

// TraceID renders the 128-bit trace ID as 32 lowercase hex digits.
func (sc SpanContext) TraceID() string {
	var b [32]byte
	putHex16(b[:16], sc.TraceHi)
	putHex16(b[16:], sc.TraceLo)
	return string(b[:])
}

// SpanID renders the 64-bit span ID as 16 lowercase hex digits.
func (sc SpanContext) SpanID() string { return SpanIDString(sc.Span) }

// SpanIDString renders any span identifier as 16 lowercase hex digits,
// the wire form used by traceparent and the trace/v1 export.
func SpanIDString(id uint64) string {
	var b [16]byte
	putHex16(b[:], id)
	return string(b[:])
}

const hexDigits = "0123456789abcdef"

func putHex16(dst []byte, v uint64) {
	for i := 15; i >= 0; i-- {
		dst[i] = hexDigits[v&0xf]
		v >>= 4
	}
}

// idState seeds the process-local ID generator. A splitmix64 walk from a
// time-seeded origin is collision-safe within a process and cheap enough
// for the request hot path (one atomic add, no allocation); IDs only
// need to be unique per trace, not cryptographically unpredictable.
var idState atomic.Uint64

func init() {
	idState.Store(uint64(time.Now().UnixNano()) * 0x9E3779B97F4A7C15)
}

func nextID() uint64 {
	x := idState.Add(0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	if x == 0 {
		x = 1 // the all-zero ID is reserved for "absent"
	}
	return x
}

// NewSpanID returns a fresh nonzero 64-bit span identifier.
func NewSpanID() uint64 { return nextID() }

// NewTraceID returns a fresh nonzero 128-bit trace identifier.
func NewTraceID() (hi, lo uint64) { return nextID(), nextID() }

// FormatTraceparent renders sc as a W3C traceparent header value
// (version 00, sampled flag set):
//
//	00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01
func FormatTraceparent(sc SpanContext) string {
	var b [55]byte
	b[0], b[1], b[2] = '0', '0', '-'
	putHex16(b[3:19], sc.TraceHi)
	putHex16(b[19:35], sc.TraceLo)
	b[35] = '-'
	putHex16(b[36:52], sc.Span)
	b[52], b[53], b[54] = '-', '0', '1'
	return string(b[:])
}

// ParseTraceparent parses a W3C traceparent header value. It accepts any
// known-format version (two hex digits other than "ff") and rejects
// malformed values and the all-zero trace or span IDs, per the spec.
func ParseTraceparent(s string) (SpanContext, bool) {
	var sc SpanContext
	if len(s) < 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return sc, false
	}
	version := s[0:2]
	if !isHex(version) || version == "ff" {
		return sc, false
	}
	// Version 00 has exactly 55 bytes; future versions may append
	// "-extra" fields, which we ignore.
	if len(s) > 55 && (version == "00" || s[55] != '-') {
		return sc, false
	}
	// isHex is checked separately because ParseUint would also accept
	// uppercase digits, which the spec forbids.
	if !isHex(s[3:35]) || !isHex(s[36:52]) || !isHex(s[53:55]) {
		return sc, false
	}
	hi, err1 := strconv.ParseUint(s[3:19], 16, 64)
	lo, err2 := strconv.ParseUint(s[19:35], 16, 64)
	span, err3 := strconv.ParseUint(s[36:52], 16, 64)
	if err1 != nil || err2 != nil || err3 != nil {
		return sc, false
	}
	sc = SpanContext{TraceHi: hi, TraceLo: lo, Span: span}
	if !sc.Valid() {
		return SpanContext{}, false
	}
	return sc, true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

// Span is one in-progress named region of request work. The zero value
// is a valid no-op span (Recording reports false, End does nothing), so
// instrumented code never branches on whether tracing is active.
type Span struct {
	tracer *Tracer
	sc     SpanContext
	parent uint64
	name   string
	start  int64
}

// Recording reports whether ending this span will record an event.
func (s Span) Recording() bool { return s.tracer != nil }

// Context returns the span's identity (zero when not recording).
func (s Span) Context() SpanContext { return s.sc }

// End records the span on the host timeline of the tracer it was
// started against. A no-op span ignores it.
func (s Span) End() { s.EndLink(0) }

// EndLink is End with a cross-trace causal link: link names the span ID
// of the operation in *another* request's trace that this span's
// duration was spent waiting on — e.g. a coalesced plan-cache waiter
// links to the winning build's span.
func (s Span) EndLink(link uint64) {
	if s.tracer == nil {
		return
	}
	s.tracer.Record(Event{
		Kind:    KindSpan,
		Name:    s.name,
		Rank:    HostRank,
		Peer:    -1,
		TraceHi: s.sc.TraceHi,
		TraceLo: s.sc.TraceLo,
		Span:    s.sc.Span,
		Parent:  s.parent,
		Link:    link,
		Start:   s.start,
		Dur:     s.tracer.Now() - s.start,
	})
}

// spanCtxKey carries the current Span through a context.Context.
type spanCtxKey struct{}

// StartSpan begins a span named name as a child of the span carried by
// ctx (inheriting its trace ID; a fresh trace is minted when ctx has
// none) and returns a derived context carrying the new span. When no
// tracer is active it returns ctx unchanged and a no-op span, with zero
// allocations.
func StartSpan(ctx context.Context, name string) (context.Context, Span) {
	t := active.Load()
	if t == nil {
		return ctx, Span{}
	}
	return startSpan(ctx, t, name, t.Now())
}

// StartSpanAt is StartSpan with an explicit start time (a Tracer.Now
// value captured earlier) — for spans whose existence is only known
// after the fact, e.g. a singleflight waiter that discovers it waited
// only once the winning build finishes.
func StartSpanAt(ctx context.Context, name string, start int64) (context.Context, Span) {
	t := active.Load()
	if t == nil {
		return ctx, Span{}
	}
	return startSpan(ctx, t, name, start)
}

func startSpan(ctx context.Context, t *Tracer, name string, start int64) (context.Context, Span) {
	s := Span{tracer: t, name: name, start: start, sc: SpanContext{Span: NewSpanID()}}
	if parent, ok := ctx.Value(spanCtxKey{}).(Span); ok {
		s.sc.TraceHi, s.sc.TraceLo = parent.sc.TraceHi, parent.sc.TraceLo
		s.parent = parent.sc.Span
	} else {
		s.sc.TraceHi, s.sc.TraceLo = NewTraceID()
	}
	return context.WithValue(ctx, spanCtxKey{}, s), s
}

// StartRootSpan begins a request-root span with an explicit identity sc
// and remote parent span ID — the service entry point that has already
// parsed (or minted) the request's trace context so it can emit headers
// before knowing whether tracing is on. When no tracer is active it
// returns ctx unchanged and a no-op span, with zero allocations.
func StartRootSpan(ctx context.Context, name string, sc SpanContext, parent uint64) (context.Context, Span) {
	t := active.Load()
	if t == nil {
		return ctx, Span{}
	}
	s := Span{tracer: t, name: name, start: t.Now(), sc: sc, parent: parent}
	return context.WithValue(ctx, spanCtxKey{}, s), s
}
