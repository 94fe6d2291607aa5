package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/telemetry"
)

// TestWorkloadScriptMirrorsDemo: the rendered script must be a faithful,
// executable-grade mirror of the demo — it parses, and the only findings
// on the default shape are warnings (the cross-distribution copy's
// HPF010 among them), never errors.
func TestWorkloadScriptMirrorsDemo(t *testing.T) {
	for _, cfg := range []config{
		{P: 4, K: 8, K2: 5, N: 320},
		{P: 3, K: 4, K2: 7, N: 100},
		{P: 1, K: 2, K2: 3, N: 40},
	} {
		src := workloadScript(cfg.P, cfg.K, cfg.K2, cfg.N)
		if diags := analysis.AnalyzeSource(src); analysis.HasErrors(diags) {
			t.Errorf("workload script for %+v has errors: %v\n%s", cfg, diags, src)
		}
	}
}

func TestPreflightReportsCrossDistributionCopy(t *testing.T) {
	var buf strings.Builder
	preflight(config{P: 4, K: 8, K2: 5, N: 320}, &buf)
	out := buf.String()
	if !strings.Contains(out, "HPF010") {
		t.Errorf("pre-flight should flag the cyclic(8)->cyclic(5) copy:\n%s", out)
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if !strings.HasPrefix(line, "pre-flight:") {
			t.Errorf("unprefixed pre-flight line %q", line)
		}
	}
}

func TestRunDefault(t *testing.T) {
	if err := run(config{P: 4, K: 8, K2: 5, N: 320}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunOtherShapes(t *testing.T) {
	if err := run(config{P: 3, K: 4, K2: 7, N: 100}, nil); err != nil {
		t.Fatal(err)
	}
	if err := run(config{P: 1, K: 2, K2: 3, N: 40}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestTraceOutput runs the demo with tracing enabled and checks the
// acceptance criterion directly: the Chrome trace parses as JSON and
// contains at least p distinct rank timelines, each with send, recv and
// barrier events.
func TestTraceOutput(t *testing.T) {
	const p = 4
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := runConfig(config{P: p, K: 8, K2: 5, N: 320, TracePath: path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Cat string `json:"cat"`
			Tid int64  `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	// kinds[tid] records which event categories appeared on that timeline.
	kinds := make(map[int64]map[string]bool)
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" {
			continue
		}
		if kinds[e.Tid] == nil {
			kinds[e.Tid] = make(map[string]bool)
		}
		kinds[e.Tid][e.Cat] = true
	}
	ranks := 0
	for tid, cats := range kinds {
		if tid < 0 || tid >= p {
			continue // host timeline
		}
		ranks++
		for _, want := range []string{"send", "recv", "barrier"} {
			if !cats[want] {
				t.Errorf("rank %d timeline missing %s events (has %v)", tid, want, cats)
			}
		}
	}
	if ranks < p {
		t.Errorf("trace has %d rank timelines, want at least %d", ranks, p)
	}
}

// TestHTTPEndpoints runs the demo with the live exposition server on an
// ephemeral port and scrapes all three endpoints in the window between
// the workload and trace shutdown.
func TestHTTPEndpoints(t *testing.T) {
	get := func(url string) (int, string) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	scraped := false
	cfg := config{P: 4, K: 8, K2: 5, N: 320, HTTPAddr: "127.0.0.1:0",
		afterRun: func(addr string) {
			scraped = true
			if code, body := get("http://" + addr + "/metrics"); code != 200 ||
				!strings.Contains(body, "machine_messages_sent") {
				t.Errorf("/metrics = %d:\n%s", code, body)
			}
			if code, body := get("http://" + addr + "/healthz"); code != 200 ||
				!strings.Contains(body, `"tracing":true`) {
				t.Errorf("/healthz = %d: %s", code, body)
			}
			code, body := get("http://" + addr + "/trace")
			if code != 200 {
				t.Fatalf("/trace = %d", code)
			}
			doc, err := telemetry.ReadTraceV1(strings.NewReader(body))
			if err != nil {
				t.Fatalf("/trace is not trace/v1: %v", err)
			}
			if doc.Ranks != 4 || len(doc.Events) == 0 {
				t.Errorf("trace doc: ranks %d, %d events", doc.Ranks, len(doc.Events))
			}
		}}
	if err := runConfig(cfg); err != nil {
		t.Fatal(err)
	}
	if !scraped {
		t.Fatal("afterRun hook never ran")
	}
	// An unbindable address fails loudly before any work runs.
	if err := runConfig(config{P: 4, K: 8, K2: 5, N: 320, HTTPAddr: "256.0.0.1:bogus"}); err == nil ||
		!strings.Contains(err.Error(), "-http") {
		t.Errorf("bad -http address error = %v, want one naming the flag", err)
	}
}

func TestRunInvalid(t *testing.T) {
	if err := run(config{P: 0, K: 8, K2: 5, N: 320}, nil); err == nil {
		t.Error("p=0 should fail")
	}
	if err := run(config{P: 4, K: 0, K2: 5, N: 320}, nil); err == nil {
		t.Error("k=0 should fail")
	}
}

// TestFaultedRunCompletes: a delay/reorder plan perturbs every transfer
// but must not change any result the demo verifies.
func TestFaultedRunCompletes(t *testing.T) {
	cfg := config{P: 4, K: 8, K2: 5, N: 320,
		FaultSpec: "seed=3,delay=0.2,reorder=0.2"}
	if err := runConfig(cfg); err != nil {
		t.Fatal(err)
	}
}

// TestDroppedRunFailsStructured: drop=1 wedges the section copy; the
// machine must convert the hang into a non-nil error naming the
// deadlock, so main exits non-zero instead of hanging.
func TestDroppedRunFailsStructured(t *testing.T) {
	cfg := config{P: 4, K: 8, K2: 5, N: 320, FaultSpec: "seed=1,drop=1"}
	err := runConfig(cfg)
	if err == nil {
		t.Fatal("run with every message dropped should fail")
	}
	if !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("error %q should name the deadlock", err)
	}
}

func TestInvalidFaultSpec(t *testing.T) {
	for _, spec := range []string{"drop=2", "bogus", "crash=1@-5", "delay=0.1:2ms"} {
		err := runConfig(config{P: 4, K: 8, K2: 5, N: 320, FaultSpec: spec})
		if err == nil {
			t.Errorf("spec %q should be rejected", spec)
			continue
		}
		if !strings.Contains(err.Error(), "-faults") {
			t.Errorf("error %q should name the -faults flag", err)
		}
	}
}

func TestUnwritableTracePath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "no", "such", "dir", "trace.json")
	err := runConfig(config{P: 4, K: 8, K2: 5, N: 320, TracePath: path})
	if err == nil {
		t.Fatal("unwritable -trace path should fail")
	}
	if !strings.Contains(err.Error(), "-trace") {
		t.Errorf("error %q should name the -trace flag", err)
	}
}

// TestBadPprofAddrFailsFast: the -pprof listener must bind before the
// workload runs, so an unusable address is a startup error naming the
// flag — not an async complaint after the machine started.
func TestBadPprofAddrFailsFast(t *testing.T) {
	err := runConfig(config{P: 2, K: 4, K2: 3, N: 64,
		PprofAddr: "256.256.256.256:1"})
	if err == nil {
		t.Fatal("unusable -pprof address should fail the run")
	}
	if !strings.Contains(err.Error(), "-pprof") {
		t.Errorf("error %q should name the -pprof flag", err)
	}
}

// TestPprofAnyPort: ":0" now works for -pprof because the listener
// binds synchronously (the old ListenAndServe goroutine could not
// report its bound port at all).
func TestPprofAnyPort(t *testing.T) {
	err := runConfig(config{P: 2, K: 4, K2: 3, N: 64,
		PprofAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
}
