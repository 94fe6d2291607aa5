package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/plancache"
	"repro/internal/telemetry"
)

// TestHerdTrace is the tentpole acceptance test: a cold key hit by a
// concurrent herd yields one connected trace — request, admission, one
// build (with tables/select/encode children), and waiter spans in the
// other requests' traces linked to the build span — whose durations
// account for the builder's request span.
func TestHerdTrace(t *testing.T) {
	plancache.ResetTables()
	tr := telemetry.StartTracing(0, 1<<13)
	defer telemetry.StopTracing()

	const herd = 8
	var srv *Server
	srv, ts := newTestServer(t, Config{
		compileHook: func(PlanRequest) {
			time.Sleep(20 * time.Millisecond)
			deadline := time.Now().Add(10 * time.Second)
			for srv == nil || srv.Stats().Coalesced < herd-1 {
				if time.Now().After(deadline) {
					t.Error("waiters never coalesced")
					return
				}
				runtime.Gosched()
			}
		},
	})

	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := postPlan(t, ts.URL, PlanRequest{P: 4, K: 8, L: 4, U: 319, S: 9, N: 320}, nil)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status = %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()

	spans := map[string][]telemetry.Event{}
	for _, e := range tr.Events() {
		if e.Kind == telemetry.KindSpan && e.Span != 0 {
			spans[e.Name] = append(spans[e.Name], e)
		}
	}
	if n := len(spans["hpfd.build"]); n != 1 {
		t.Fatalf("got %d hpfd.build spans, want exactly 1 (herd of %d)", n, herd)
	}
	build := spans["hpfd.build"][0]
	if n := len(spans["hpfd.request"]); n != herd {
		t.Fatalf("got %d hpfd.request spans, want %d", n, herd)
	}
	if n := len(spans["hpfd.wait"]); n != herd-1 {
		t.Fatalf("got %d hpfd.wait spans, want %d", n, herd-1)
	}
	if n := len(spans["hpfd.write"]); n != herd {
		t.Fatalf("got %d hpfd.write spans, want %d", n, herd)
	}
	for _, w := range spans["hpfd.wait"] {
		if w.Link != build.Span {
			t.Errorf("wait span links to %x, want build span %x", w.Link, build.Span)
		}
		if w.TraceHi == build.TraceHi && w.TraceLo == build.TraceLo {
			t.Error("a wait span shares the builder's trace; waiters must be other requests")
		}
	}
	// The compile phases are children of the build span, in its trace.
	for _, phase := range []string{"hpfd.tables", "hpfd.select", "hpfd.encode"} {
		if n := len(spans[phase]); n != 1 {
			t.Fatalf("got %d %s spans, want 1", n, phase)
		}
		e := spans[phase][0]
		if e.Parent != build.Span || e.TraceHi != build.TraceHi || e.TraceLo != build.TraceLo {
			t.Errorf("%s span parent %x trace %x%x, want build %x %x%x",
				phase, e.Parent, e.TraceHi, e.TraceLo, build.Span, build.TraceHi, build.TraceLo)
		}
	}

	// The builder's own request span: same trace as the build span; the
	// admission + build + write durations must account for it (within
	// slack — the remainder is handler overhead, far below the 20 ms the
	// compile hook sleeps).
	inBuilderTrace := func(name string) *telemetry.Event {
		for i := range spans[name] {
			if e := &spans[name][i]; e.TraceHi == build.TraceHi && e.TraceLo == build.TraceLo {
				return e
			}
		}
		t.Fatalf("builder's trace lacks a %s span", name)
		return nil
	}
	reqSpan := inBuilderTrace("hpfd.request")
	admSpan := inBuilderTrace("hpfd.admission")
	writeSpan := inBuilderTrace("hpfd.write")
	for _, e := range []*telemetry.Event{&build, admSpan, writeSpan} {
		if e.Parent != reqSpan.Span {
			t.Errorf("%s parent %x, want request span %x", e.Name, e.Parent, reqSpan.Span)
		}
	}
	phaseSum := admSpan.Dur + build.Dur + writeSpan.Dur
	if phaseSum > reqSpan.Dur {
		t.Errorf("admission+build+write = %d ns exceeds the request span %d ns", phaseSum, reqSpan.Dur)
	}
	if phaseSum < reqSpan.Dur/2 {
		t.Errorf("admission+build+write = %d ns accounts for under half the request span %d ns", phaseSum, reqSpan.Dur)
	}
}

// TestWriteSpan: a traced POST, GET and batch request each record
// exactly one hpfd.write span, a child of that request's hpfd.request
// span whose interval lies inside it.
func TestWriteSpan(t *testing.T) {
	tr := telemetry.StartTracing(0, 1<<13)
	defer telemetry.StopTracing()
	_, ts := newTestServer(t, Config{})

	key := PlanRequest{P: 4, K: 8, L: 4, U: 319, S: 9, N: 320}
	post := postPlan(t, ts.URL, key, nil)
	get, err := http.Get(ts.URL + "/v1/plan?p=4&k=8&l=4&u=319&s=9&n=320")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(batchRequest{Requests: []PlanRequest{key, {P: 4, K: 8, L: 1, U: 99, S: 3}}})
	batch, err := http.Post(ts.URL+"/v1/plan/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for _, resp := range []*http.Response{post, get, batch} {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: status %d", resp.Request.Method, resp.Request.URL.Path, resp.StatusCode)
		}
	}

	requests := map[uint64]telemetry.Event{}
	writes := map[uint64]int{}
	for _, e := range tr.Events() {
		if e.Kind == telemetry.KindSpan && e.Name == "hpfd.request" {
			requests[e.Span] = e
		}
	}
	for _, e := range tr.Events() {
		if e.Kind != telemetry.KindSpan || e.Name != "hpfd.write" {
			continue
		}
		req, ok := requests[e.Parent]
		if !ok || e.TraceHi != req.TraceHi || e.TraceLo != req.TraceLo {
			t.Errorf("hpfd.write span %x is not a child of a request span", e.Span)
			continue
		}
		writes[e.Parent]++
		if e.Start < req.Start || e.Start+e.Dur > req.Start+req.Dur {
			t.Errorf("hpfd.write [%d, +%d] lies outside its request [%d, +%d]", e.Start, e.Dur, req.Start, req.Dur)
		}
	}
	if len(requests) != 3 {
		t.Fatalf("got %d hpfd.request spans, want 3", len(requests))
	}
	for id := range requests {
		if writes[id] != 1 {
			t.Errorf("request span %x has %d hpfd.write children, want 1", id, writes[id])
		}
	}
}

// TestTraceparentEcho: an inbound traceparent is joined — the response
// reports the same trace ID — and X-Request-ID is echoed when supplied,
// minted from the trace ID otherwise. This holds with tracing off:
// identity flows even when nothing is recorded.
func TestTraceparentEcho(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const traceID = "0af7651916cd43dd8448eb211c80319c"
	inbound := "00-" + traceID + "-b7ad6b7169203331-01"

	h := http.Header{}
	h.Set("traceparent", inbound)
	resp := postPlan(t, ts.URL, PlanRequest{P: 4, K: 8, L: 4, U: 319, S: 9, N: 320}, h)
	resp.Body.Close()
	tp := resp.Header.Get("traceparent")
	sc, ok := telemetry.ParseTraceparent(tp)
	if !ok {
		t.Fatalf("response traceparent %q does not parse", tp)
	}
	if sc.TraceID() != traceID {
		t.Errorf("response trace ID = %s, want inbound %s", sc.TraceID(), traceID)
	}
	if sc.SpanID() == "b7ad6b7169203331" {
		t.Error("response span ID equals the inbound span; the server must mint its own")
	}
	if got := resp.Header.Get("X-Request-ID"); got != traceID {
		t.Errorf("X-Request-ID = %q, want the trace ID %q", got, traceID)
	}

	// Caller-supplied request ID is echoed verbatim.
	h.Set("X-Request-ID", "req-42")
	resp = postPlan(t, ts.URL, PlanRequest{P: 4, K: 8, L: 4, U: 319, S: 9, N: 320}, h)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "req-42" {
		t.Errorf("X-Request-ID = %q, want the echoed %q", got, "req-42")
	}

	// No inbound identity: a fresh valid traceparent and a request ID.
	resp = postPlan(t, ts.URL, PlanRequest{P: 4, K: 8, L: 4, U: 319, S: 9, N: 320}, nil)
	resp.Body.Close()
	if _, ok := telemetry.ParseTraceparent(resp.Header.Get("traceparent")); !ok {
		t.Errorf("minted traceparent %q does not parse", resp.Header.Get("traceparent"))
	}
	if resp.Header.Get("X-Request-ID") == "" {
		t.Error("no X-Request-ID minted")
	}
}

// TestRequestSpanRecordedBeforeReply: a client holding the whole
// reply finds the request's hpfd.request span already recorded, also
// for a plan far larger than net/http's write buffers. perfbench's
// traced plan runs stop the tracer once the last reply arrives and
// fail on a request without its span. A reply that can complete before
// the handler returns, as a body written under an explicit
// Content-Length does, loses spans here.
func TestRequestSpanRecordedBeforeReply(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body, _ := json.Marshal(PlanRequest{P: 64, K: 4096, L: 3, U: 1<<22 - 1, S: 7})
	for i := 0; i < 300; i++ {
		tr := telemetry.StartTracing(0, 1<<10)
		resp, err := http.Post(ts.URL+"/v1/plan", "application/json", bytes.NewReader(body))
		if err != nil {
			telemetry.StopTracing()
			t.Fatal(err)
		}
		n, _ := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		telemetry.StopTracing()
		if resp.StatusCode != http.StatusOK || n < 64<<10 {
			t.Fatalf("status %d with %d bytes, want 200 with a plan over 64 KB", resp.StatusCode, n)
		}
		if !slices.ContainsFunc(tr.Events(), func(e telemetry.Event) bool { return e.Name == "hpfd.request" }) {
			t.Fatalf("request %d: reply complete before its hpfd.request span was recorded", i)
		}
	}
}

// TestAccessLogJSON: with a JSON slog logger configured, every request
// produces exactly one access-log line whose fields carry the route,
// status, cache outcome and trace identity.
func TestAccessLogJSON(t *testing.T) {
	plancache.ResetTables()
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewJSONHandler(&syncWriter{w: &buf, mu: &mu}, nil))
	_, ts := newTestServer(t, Config{Logger: logger})

	resp := postPlan(t, ts.URL, PlanRequest{P: 4, K: 8, L: 4, U: 319, S: 9, N: 320},
		http.Header{"X-Tenant": []string{"acme"}})
	resp.Body.Close()
	resp = postPlan(t, ts.URL, PlanRequest{P: 4, K: 8, L: 4, U: 319, S: 9, N: 320}, nil)
	resp.Body.Close()

	mu.Lock()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	mu.Unlock()
	if len(lines) != 2 {
		t.Fatalf("got %d access-log lines, want 2:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	for i, wantCache := range []string{"built", "hit"} {
		var rec map[string]any
		if err := json.Unmarshal([]byte(lines[i]), &rec); err != nil {
			t.Fatalf("log line %d is not JSON: %v\n%s", i, err, lines[i])
		}
		if rec["msg"] != "request" || rec["route"] != "plan" || rec["status"] != float64(200) {
			t.Errorf("line %d = %v", i, rec)
		}
		if rec["cache"] != wantCache {
			t.Errorf("line %d cache = %v, want %q", i, rec["cache"], wantCache)
		}
		trace, _ := rec["trace"].(string)
		if len(trace) != 32 {
			t.Errorf("line %d trace = %q, want 32 hex digits", i, trace)
		}
		if rec["request_id"] == "" {
			t.Errorf("line %d has no request_id", i)
		}
		if _, ok := rec["dur_ns"].(float64); !ok {
			t.Errorf("line %d has no dur_ns", i)
		}
	}
	if v, _ := json.Marshal(lines[0]); !bytes.Contains(v, []byte("acme")) {
		t.Errorf("first line lacks the tenant: %s", lines[0])
	}
}

type syncWriter struct {
	w  *bytes.Buffer
	mu *sync.Mutex
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// TestRequestAccounting: every HTTP response to a plan route adds one
// to hpfd.requests and exactly one hpfd.responses_* outcome, so the
// outcome deltas sum to the request delta. A batch answered 200 counts
// once as ok, however many of its keys failed.
func TestRequestAccounting(t *testing.T) {
	reg := telemetry.Default()
	names := []string{"ok", "304", "429_quota", "429_overload", "bad_request", "error"}
	before := map[string]int64{}
	for _, n := range names {
		before[n] = reg.Counter("hpfd.responses_" + n).Value()
	}
	requests0 := reg.Counter("hpfd.requests").Value()
	observed0 := reg.Histogram("hpfd.request_ns").Count()

	// One compile slot, held by slow's build until release closes.
	slow := PlanRequest{P: 4, K: 8, L: 0, U: 999, S: 3, N: 1000}
	entered, release := make(chan struct{}), make(chan struct{})
	_, ts := newTestServer(t, Config{MaxInflight: 1, compileHook: func(k PlanRequest) {
		if k == slow {
			close(entered)
			<-release
		}
	}})
	status := func(resp *http.Response) int {
		resp.Body.Close()
		return resp.StatusCode
	}
	built := make(chan int, 1)
	go func() {
		body, _ := json.Marshal(slow)
		resp, err := http.Post(ts.URL+"/v1/plan", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			built <- 0
			return
		}
		built <- status(resp)
	}()
	<-entered
	if got := status(postPlan(t, ts.URL, PlanRequest{P: 4, K: 8, L: 0, U: 999, S: 5}, nil)); got != http.StatusTooManyRequests {
		t.Errorf("overload: status %d, want 429", got)
	}
	close(release)
	if got := <-built; got != http.StatusOK {
		t.Errorf("built: status %d, want 200", got)
	}
	hit := postPlan(t, ts.URL, slow, nil)
	etag := hit.Header.Get("ETag")
	if got := status(hit); got != http.StatusOK {
		t.Errorf("hit: status %d, want 200", got)
	}
	if got := status(postPlan(t, ts.URL, slow, http.Header{"If-None-Match": {etag}})); got != http.StatusNotModified {
		t.Errorf("conditional: status %d, want 304", got)
	}
	del, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/plan", nil)
	resp, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	if got := status(resp); got != http.StatusMethodNotAllowed {
		t.Errorf("DELETE: status %d, want 405", got)
	}
	body, _ := json.Marshal(batchRequest{Requests: []PlanRequest{slow, {P: 0, K: 8, U: 99, S: 3}}})
	resp, err = http.Post(ts.URL+"/v1/plan/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if got := status(resp); got != http.StatusOK {
		t.Errorf("batch: status %d, want 200", got)
	}

	// A tenant allowed one request: its bad key spends the token, the
	// next request is refused by quota.
	qsrv, qts := newTestServer(t, Config{TenantRate: 1, TenantBurst: 1})
	clock := time.Unix(1000, 0)
	qsrv.quotas.now = func() time.Time { return clock }
	tenant := http.Header{"X-Tenant": {"accounting"}}
	if got := status(postPlan(t, qts.URL, PlanRequest{P: 0, K: 8, U: 99, S: 3}, tenant)); got != http.StatusBadRequest {
		t.Errorf("bad key: status %d, want 400", got)
	}
	if got := status(postPlan(t, qts.URL, slow, tenant)); got != http.StatusTooManyRequests {
		t.Errorf("quota: status %d, want 429", got)
	}

	want := map[string]int64{"ok": 3, "304": 1, "429_quota": 1, "429_overload": 1, "bad_request": 2, "error": 0}
	var sum int64
	for _, n := range names {
		d := reg.Counter("hpfd.responses_"+n).Value() - before[n]
		sum += d
		if d != want[n] {
			t.Errorf("hpfd.responses_%s delta = %d, want %d", n, d, want[n])
		}
	}
	requests := reg.Counter("hpfd.requests").Value() - requests0
	if requests != 8 || sum != requests {
		t.Errorf("hpfd.requests delta = %d and responses sum to %d, want 8 and 8", requests, sum)
	}
	if got := reg.Histogram("hpfd.request_ns").Count() - observed0; got != requests {
		t.Errorf("hpfd.request_ns observed %d requests, want %d", got, requests)
	}
}

// TestRetryAfterSeconds pins the rounding contract: durations round up
// to whole seconds with a floor of 1.
func TestRetryAfterSeconds(t *testing.T) {
	for d, want := range map[time.Duration]int64{
		0:                       1,
		time.Nanosecond:         1,
		time.Millisecond:        1,
		999 * time.Millisecond:  1,
		time.Second:             1,
		time.Second + 1:         2,
		1500 * time.Millisecond: 2,
		2 * time.Second:         2,
		90 * time.Second:        90,
		3600*time.Second - 1:    3600,
		3600 * time.Second:      3600,
		24 * 3600 * time.Second: 86400,
	} {
		if got := retryAfterSeconds(d); got != want {
			t.Errorf("retryAfterSeconds(%v) = %d, want %d", d, got, want)
		}
	}
}

// TestQuotaRetryAfterSaturated: with a saturated token bucket the 429
// carries a Retry-After derived from the actual refill time, not the
// floor.
func TestQuotaRetryAfterSaturated(t *testing.T) {
	srv, ts := newTestServer(t, Config{TenantRate: 0.5, TenantBurst: 1})
	clock := time.Unix(5_000_000, 0)
	srv.quotas.now = func() time.Time { return clock }

	key := PlanRequest{P: 4, K: 8, L: 4, U: 319, S: 9, N: 320}
	h := http.Header{"X-Tenant": []string{"saturated"}}
	resp := postPlan(t, ts.URL, key, h)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request status = %d", resp.StatusCode)
	}
	// Bucket empty, no time passed: one token refills in 1/0.5 = 2 s.
	resp = postPlan(t, ts.URL, key, h)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated request status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q, want \"2\" (deficit 1 token at 0.5/s)", got)
	}
	// Half the deficit refilled: 1 s remains.
	clock = clock.Add(time.Second)
	resp = postPlan(t, ts.URL, key, h)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("still-saturated request status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", got)
	}
}
