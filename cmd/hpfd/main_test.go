package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/traceanalysis"
)

// startServer runs runConfig on a free port in the background and
// returns the bound address plus a shutdown-and-wait function.
func startServer(t *testing.T, cfg config) (string, func() error) {
	t.Helper()
	addrCh := make(chan string, 1)
	stop := make(chan struct{})
	done := make(chan error, 1)
	cfg.Addr = "127.0.0.1:0"
	cfg.afterStart = func(addr string) { addrCh <- addr }
	cfg.stop = stop
	go func() { done <- runConfig(cfg) }()
	select {
	case addr := <-addrCh:
		return addr, func() error {
			close(stop)
			select {
			case err := <-done:
				return err
			case <-time.After(10 * time.Second):
				t.Fatal("runConfig did not return after stop")
				return nil
			}
		}
	case err := <-done:
		t.Fatalf("server exited before start: %v", err)
		return "", nil
	}
}

// TestServeLifecycle boots hpfd on :0, exercises the plan and ops
// endpoints over real HTTP, and shuts down gracefully.
func TestServeLifecycle(t *testing.T) {
	addr, shutdown := startServer(t, config{Drain: 5 * time.Second})
	url := "http://" + addr

	body := []byte(`{"p":4,"k":8,"l":4,"u":319,"s":9}`)
	resp, err := http.Post(url+"/v1/plan", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	plan, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/plan = %d: %s", resp.StatusCode, plan)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("plan response has no ETag")
	}
	var doc map[string]any
	if err := json.Unmarshal(plan, &doc); err != nil || doc["schema"] != "hpfd/v1" {
		t.Fatalf("bad plan document (%v): %s", err, plan)
	}

	// Conditional revalidation against the running daemon.
	req, _ := http.NewRequest(http.MethodPost, url+"/v1/plan", bytes.NewReader(body))
	req.Header.Set("If-None-Match", etag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Errorf("conditional request = %d, want 304", resp.StatusCode)
	}

	// The ops surface is mounted, with both the hpfd.* counters and the
	// plan cache's plancache.hpfd.plans.* gauges.
	resp, err = http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"hpfd_requests", "plancache_hpfd_plans_misses"} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	resp, err = http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz = %d", resp.StatusCode)
	}

	if err := shutdown(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	// The port is released after shutdown.
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Error("server still answering after shutdown")
	}
}

// TestBadAddrFailsFast: an unusable -addr must fail runConfig
// synchronously with an error naming the flag — not report success and
// die in a goroutine.
func TestBadAddrFailsFast(t *testing.T) {
	err := runConfig(config{Addr: "256.256.256.256:1", Drain: time.Second})
	if err == nil {
		t.Fatal("runConfig succeeded with an unusable -addr")
	}
	if !strings.Contains(err.Error(), "-addr") {
		t.Errorf("error %q does not name the -addr flag", err)
	}
}

// TestBadPprofFailsFast: same contract for the -pprof listener, which
// historically started asynchronously and could fail after startup.
func TestBadPprofFailsFast(t *testing.T) {
	// Occupy a port so the pprof bind deterministically fails.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	err = runConfig(config{Addr: "127.0.0.1:0", PprofAddr: ln.Addr().String(), Drain: time.Second})
	if err == nil {
		t.Fatal("runConfig succeeded with an occupied -pprof address")
	}
	if !strings.Contains(err.Error(), "-pprof") {
		t.Errorf("error %q does not name the -pprof flag", err)
	}
}

// TestHTTPServerHardening: the listener-facing server carries the
// slowloris protections, from both the defaults and explicit overrides.
func TestHTTPServerHardening(t *testing.T) {
	hs := newHTTPServer(config{}.withDefaults(), nil)
	if hs.ReadHeaderTimeout != 5*time.Second {
		t.Errorf("default ReadHeaderTimeout = %v, want 5s", hs.ReadHeaderTimeout)
	}
	if hs.ReadTimeout != 30*time.Second {
		t.Errorf("default ReadTimeout = %v, want 30s", hs.ReadTimeout)
	}
	if hs.IdleTimeout != 2*time.Minute {
		t.Errorf("default IdleTimeout = %v, want 2m", hs.IdleTimeout)
	}
	if hs.MaxHeaderBytes != 1<<20 {
		t.Errorf("default MaxHeaderBytes = %d, want %d", hs.MaxHeaderBytes, 1<<20)
	}

	hs = newHTTPServer(config{
		ReadHeaderTimeout: time.Second,
		ReadTimeout:       2 * time.Second,
		IdleTimeout:       3 * time.Second,
		MaxHeaderBytes:    4096,
	}.withDefaults(), nil)
	if hs.ReadHeaderTimeout != time.Second || hs.ReadTimeout != 2*time.Second ||
		hs.IdleTimeout != 3*time.Second || hs.MaxHeaderBytes != 4096 {
		t.Errorf("overrides not applied: %+v", hs)
	}
}

// TestBadLogFormat: an unknown -log-format fails the start with an
// error naming the flag.
func TestBadLogFormat(t *testing.T) {
	err := runConfig(config{Addr: "127.0.0.1:0", LogFormat: "xml", Drain: time.Second})
	if err == nil {
		t.Fatal("runConfig succeeded with -log-format xml")
	}
	if !strings.Contains(err.Error(), "-log-format") {
		t.Errorf("error %q does not name the -log-format flag", err)
	}
}

// logBuffer is a mutex-guarded sink for the server's log stream; the
// lifecycle goroutine and per-request access logs write concurrently.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *logBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestJSONLogsAndTraceIdentity boots hpfd with -log-format json, joins
// a fixed traceparent, and checks: the trace ID round-trips into
// X-Request-ID, every log line is valid JSON, and the lifecycle events
// (listening, request, draining, drained) are all present.
func TestJSONLogsAndTraceIdentity(t *testing.T) {
	var logs logBuffer
	addr, shutdown := startServer(t, config{Drain: 5 * time.Second, LogFormat: "json", logOut: &logs})
	url := "http://" + addr

	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	req, _ := http.NewRequest(http.MethodGet, url+"/v1/plan?p=4&k=8&l=4&u=319&s=9", nil)
	req.Header.Set("traceparent", "00-"+traceID+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/plan = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != traceID {
		t.Errorf("X-Request-ID = %q, want the inbound trace ID %q", got, traceID)
	}
	if tp := resp.Header.Get("traceparent"); !strings.Contains(tp, traceID) {
		t.Errorf("response traceparent %q does not carry the inbound trace ID", tp)
	}

	// The span trace is exported on /trace (tracing is on by default).
	resp, err = http.Get(url + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	trace, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/trace = %d", resp.StatusCode)
	}
	if !strings.Contains(string(trace), `"hpfd.request"`) || !strings.Contains(string(trace), traceID) {
		t.Error("/trace export lacks the request span or its trace ID")
	}
	// The live export is what hpfprof -serve reads: the cold request
	// shows up with its admission and build phases.
	doc, err := telemetry.ReadTraceV1(bytes.NewReader(trace))
	if err != nil {
		t.Fatalf("/trace is not trace/v1: %v", err)
	}
	a, err := traceanalysis.AnalyzeServe(doc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Requests == 0 || a.Builds == 0 {
		t.Errorf("request attribution counts %d requests, %d builds; want both > 0", a.Requests, a.Builds)
	}
	for _, ph := range []string{"request", "admission", "build"} {
		if a.Phase(ph).Count == 0 {
			t.Errorf("request attribution has no %q samples", ph)
		}
	}

	if err := shutdown(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}

	msgs, traced := map[string]bool{}, false
	for i, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line %d is not JSON: %v\n%s", i, err, line)
		}
		if msg, ok := rec["msg"].(string); ok {
			msgs[msg] = true
		}
		if rec["msg"] == "request" && rec["route"] == "plan" {
			if rec["trace"] != traceID {
				t.Errorf("access log trace = %v, want %s", rec["trace"], traceID)
			}
			if rec["status"] != float64(http.StatusOK) || rec["request_id"] != traceID {
				t.Errorf("access log status = %v, request_id = %v; want 200 and the trace ID", rec["status"], rec["request_id"])
			}
			traced = true
		}
	}
	if !traced {
		t.Errorf("no plan access-log line joined the fixed trace:\n%s", logs.String())
	}
	for _, want := range []string{"listening", "request", "draining", "drained"} {
		if !msgs[want] {
			t.Errorf("log stream lacks a %q event:\n%s", want, logs.String())
		}
	}
}
