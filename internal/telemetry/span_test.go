package telemetry

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestTraceparentRoundTrip(t *testing.T) {
	sc := SpanContext{TraceHi: 0x0af7651916cd43dd, TraceLo: 0x8448eb211c80319c, Span: 0xb7ad6b7169203331}
	h := FormatTraceparent(sc)
	want := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	if h != want {
		t.Fatalf("FormatTraceparent = %q, want %q", h, want)
	}
	got, ok := ParseTraceparent(h)
	if !ok || got != sc {
		t.Fatalf("ParseTraceparent(%q) = %+v, %v; want %+v", h, got, ok, sc)
	}
}

func TestParseTraceparentMalformed(t *testing.T) {
	valid := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	cases := []struct {
		name string
		in   string
		ok   bool
	}{
		{"valid", valid, true},
		{"empty", "", false},
		{"short", valid[:54], false},
		{"version ff", "ff" + valid[2:], false},
		{"future version", "cc" + valid[2:], true},
		{"future version with extension", "cc" + valid[2:] + "-extra", true},
		{"version 00 with trailing data", valid + "-extra", false},
		{"trailing garbage without dash", valid + "x", false},
		{"uppercase hex", strings.ToUpper(valid), false},
		{"bad separator", strings.Replace(valid, "-", "_", 1), false},
		{"nonhex trace", "00-zf7651916cd43dd8448eb211c80319c0-b7ad6b7169203331-01", false},
		{"nonhex span", "00-0af7651916cd43dd8448eb211c80319c-z7ad6b7169203331-01", false},
		{"zero trace", "00-00000000000000000000000000000000-b7ad6b7169203331-01", false},
		{"zero span", "00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01", false},
		{"nonhex flags", "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-zz", false},
	}
	for _, tc := range cases {
		if _, ok := ParseTraceparent(tc.in); ok != tc.ok {
			t.Errorf("%s: ParseTraceparent(%q) ok = %v, want %v", tc.name, tc.in, ok, tc.ok)
		}
	}
}

func TestNewIDsNonzero(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		id := NewSpanID()
		if id == 0 {
			t.Fatal("NewSpanID returned 0")
		}
		if seen[id] {
			t.Fatalf("NewSpanID repeated %x after %d draws", id, i)
		}
		seen[id] = true
	}
	hi, lo := NewTraceID()
	if hi|lo == 0 {
		t.Fatal("NewTraceID returned all-zero")
	}
}

func TestSpanDisabledPathZeroAlloc(t *testing.T) {
	if ActiveTracer() != nil {
		t.Fatal("test requires no active tracer")
	}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		c2, s := StartSpan(ctx, "disabled")
		s.End()
		_, rs := StartRootSpan(c2, "root", SpanContext{}, 0)
		rs.EndLink(7)
		_, as := StartSpanAt(c2, "at", 0)
		as.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled span path allocated %v allocs/op, want 0", allocs)
	}
	if _, s := StartSpan(ctx, "x"); s.Recording() {
		t.Fatal("span reports Recording with no active tracer")
	}
}

func TestSpanRecordsAndParents(t *testing.T) {
	tr := StartTracing(0, 64)
	defer StopTracing()

	ctx, root := StartSpan(context.Background(), "request")
	if !root.Recording() || !root.Context().Valid() {
		t.Fatalf("root span not recording or invalid: %+v", root.Context())
	}
	cctx, child := StartSpan(ctx, "build")
	if child.Context().TraceHi != root.Context().TraceHi || child.Context().TraceLo != root.Context().TraceLo {
		t.Fatal("child did not inherit trace ID")
	}
	if got, ok := cctx.Value(spanCtxKey{}).(Span); !ok || got.Context() != child.Context() {
		t.Fatal("StartSpan did not store the child span in its context")
	}
	child.EndLink(0xdead)
	root.End()

	events := tr.Events()
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	ce, re := events[0], events[1]
	if ce.Kind != KindSpan || ce.Name != "build" || ce.Rank != HostRank {
		t.Fatalf("child event = %+v", ce)
	}
	if ce.Parent != root.Context().Span {
		t.Fatalf("child Parent = %x, want root span %x", ce.Parent, root.Context().Span)
	}
	if ce.Link != 0xdead {
		t.Fatalf("child Link = %x, want dead", ce.Link)
	}
	if re.Parent != 0 {
		t.Fatalf("root Parent = %x, want 0", re.Parent)
	}
	if re.Dur < ce.Dur || re.Start > ce.Start {
		t.Fatalf("root should contain child: root [%d,+%d] child [%d,+%d]", re.Start, re.Dur, ce.Start, ce.Dur)
	}
}

func TestStartRootSpanUsesGivenIdentity(t *testing.T) {
	StartTracing(0, 16)
	defer StopTracing()

	sc := SpanContext{TraceHi: 1, TraceLo: 2, Span: 3}
	ctx, root := StartRootSpan(context.Background(), "request", sc, 9)
	_, child := StartSpan(ctx, "inner")
	if child.Context().TraceHi != 1 || child.Context().TraceLo != 2 {
		t.Fatal("child did not inherit explicit trace ID")
	}
	child.End()
	root.End()

	events := ActiveTracer().Events()
	re := events[1]
	if re.TraceHi != 1 || re.TraceLo != 2 || re.Span != 3 || re.Parent != 9 {
		t.Fatalf("root event identity = %+v", re)
	}
}

func TestStartSpanAtBackdates(t *testing.T) {
	tr := StartTracing(0, 16)
	defer StopTracing()

	start := tr.Now()
	_, s := StartSpanAt(context.Background(), "wait", start)
	s.End()
	e := tr.Events()[0]
	if e.Start != start {
		t.Fatalf("Start = %d, want %d", e.Start, start)
	}
}

func TestTraceV1RoundTripsSpanIdentity(t *testing.T) {
	tr := StartTracing(0, 16)
	defer StopTracing()

	ctx, root := StartSpan(context.Background(), "request")
	_, child := StartSpan(ctx, "build")
	child.EndLink(0xfeed)
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteTraceV1(&buf); err != nil {
		t.Fatal(err)
	}
	doc, err := ReadTraceV1(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := doc.RuntimeEvents()
	want := tr.Events()
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	// Spot-check the wire form is hex strings.
	ce := doc.Events[0]
	if ce.Trace != root.Context().TraceID() || ce.Link != "000000000000feed" {
		t.Fatalf("wire event = %+v", ce)
	}
}

func TestReadTraceV1RejectsMalformedSpanIDs(t *testing.T) {
	for _, body := range []string{
		`{"schema":"trace/v1","ranks":0,"capacity":1,"events":[{"kind":"span","name":"x","rank":-1,"peer":-1,"trace":"nothex"}]}`,
		`{"schema":"trace/v1","ranks":0,"capacity":1,"events":[{"kind":"span","name":"x","rank":-1,"peer":-1,"span":"123"}]}`,
		`{"schema":"trace/v1","ranks":0,"capacity":1,"events":[{"kind":"span","name":"x","rank":-1,"peer":-1,"link":"ZZZZZZZZZZZZZZZZ"}]}`,
	} {
		if _, err := ReadTraceV1(strings.NewReader(body)); err == nil {
			t.Errorf("ReadTraceV1 accepted malformed doc %s", body)
		}
	}
}

func TestChromeTraceCarriesSpanArgs(t *testing.T) {
	tr := StartTracing(0, 16)
	defer StopTracing()

	ctx, root := StartSpan(context.Background(), "request")
	_, child := StartSpan(ctx, "build")
	child.EndLink(42)
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`"trace": "` + root.Context().TraceID() + `"`,
		`"span": "` + child.Context().SpanID() + `"`,
		`"parent": "` + root.Context().SpanID() + `"`,
		`"link": "000000000000002a"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("chrome trace missing %s", want)
		}
	}
}

func BenchmarkSpanDisabled(b *testing.B) {
	if ActiveTracer() != nil {
		b.Fatal("benchmark requires no active tracer")
	}
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c2, s := StartSpan(ctx, "disabled")
		_ = c2
		s.End()
	}
}

func BenchmarkSpanRecord(b *testing.B) {
	StartTracing(0, 1<<14)
	defer StopTracing()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c2, s := StartSpan(ctx, "request")
		_ = c2
		s.End()
	}
}
