package main

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

// newHpfd stands up an in-process hpfd (the serve handler with the
// plan-cache gauges registered, exactly as cmd/hpfd configures it) and
// returns its base address.
func newHpfd(t *testing.T, cfg serve.Config) (string, *serve.Server) {
	t.Helper()
	cfg.MetricsName = "hpfd.plans"
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return strings.TrimPrefix(ts.URL, "http://"), srv
}

// TestLoadAgainstColdServer runs a small burst at a cold instance and
// checks the report: everything answered, latency percentiles ordered,
// and the server-side counter deltas scraped from /metrics.
func TestLoadAgainstColdServer(t *testing.T) {
	addr, srv := newHpfd(t, serve.Config{})
	rep, err := runLoad(loadConfig{
		Addr: addr, N: 200, C: 8, Keys: 16, Zipf: 1.2, Seed: 7,
		Timeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != ReportSchema {
		t.Errorf("schema = %q", rep.Schema)
	}
	if rep.OK != 200 || rep.Throttled != 0 || rep.Failed != 0 {
		t.Fatalf("outcome = %d ok / %d throttled / %d failed, want 200/0/0",
			rep.OK, rep.Throttled, rep.Failed)
	}
	if rep.P50Ns <= 0 || rep.P50Ns > rep.P99Ns || rep.MaxNs < rep.P50Ns {
		t.Errorf("latency percentiles inconsistent: p50 %d p99 %d max %d",
			rep.P50Ns, rep.P99Ns, rep.MaxNs)
	}
	if !rep.Server.Scraped {
		t.Fatal("report did not scrape the plan-cache gauges from /metrics")
	}
	if rep.Server.Compiles < 1 || rep.Server.Compiles > 16 {
		t.Errorf("server compiled %d plans for a 16-key working set", rep.Server.Compiles)
	}
	st := srv.Stats()
	if rep.Server.Compiles != st.Misses || rep.Server.Coalesced != st.Coalesced {
		t.Errorf("scraped deltas (%d compiles, %d coalesced) disagree with server stats %+v",
			rep.Server.Compiles, rep.Server.Coalesced, st)
	}
	if rep.StatusCounts["200"] != 200 || len(rep.StatusCounts) != 1 {
		t.Errorf("status counts = %v, want {200: 200}", rep.StatusCounts)
	}
	if rep.ThrottledRate != 0 || rep.RetryAfter != nil {
		t.Errorf("unthrottled run reported rate %f, retry-after %+v", rep.ThrottledRate, rep.RetryAfter)
	}

	// -json encodes this report; its consumers read these names.
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema string `json:"schema"`
		OK     int64  `json:"ok"`
		Failed int64  `json:"failed"`
		P50Ns  int64  `json:"p50_ns"`
		P99Ns  int64  `json:"p99_ns"`
		Server struct {
			Scraped  bool  `json:"scraped"`
			Compiles int64 `json:"compiles"`
		} `json:"server"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != ReportSchema || doc.OK != 200 || doc.Failed != 0 || doc.P50Ns != rep.P50Ns ||
		doc.P99Ns != rep.P99Ns || !doc.Server.Scraped || doc.Server.Compiles != rep.Server.Compiles {
		t.Errorf("-json document %s does not carry the report's fields", data)
	}
}

// TestThrottledRunReportsRetryAfter drives a quota'd tenant hard enough
// to draw 429s and checks the new hpfload/v1 fields: the per-status
// breakdown, the 429 rate, and the observed Retry-After spread.
func TestThrottledRunReportsRetryAfter(t *testing.T) {
	// Burst 1 at 0.5 rps: the first request spends the bucket, everything
	// after is refused with Retry-After >= 1.
	addr, _ := newHpfd(t, serve.Config{TenantRate: 0.5, TenantBurst: 1})
	rep, err := runLoad(loadConfig{
		Addr: addr, N: 32, C: 4, Keys: 4, Zipf: 0, Seed: 3,
		Tenant: "throttled-tenant", Timeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Throttled == 0 {
		t.Fatal("no 429s; the quota did not bite")
	}
	if rep.StatusCounts["429"] != rep.Throttled {
		t.Errorf("status counts %v disagree with throttled = %d", rep.StatusCounts, rep.Throttled)
	}
	if got := rep.StatusCounts["200"] + rep.StatusCounts["429"]; got != rep.Requests {
		t.Errorf("status counts %v do not cover all %d requests", rep.StatusCounts, rep.Requests)
	}
	wantRate := float64(rep.Throttled) / float64(rep.Requests)
	if rep.ThrottledRate != wantRate {
		t.Errorf("throttled rate = %f, want %f", rep.ThrottledRate, wantRate)
	}
	ra := rep.RetryAfter
	if ra == nil {
		t.Fatal("throttled run reported no retry-after stats")
	}
	if ra.Count != rep.Throttled {
		t.Errorf("retry-after count = %d, want one per 429 (%d)", ra.Count, rep.Throttled)
	}
	if ra.MinSeconds < 1 || ra.MaxSeconds < ra.MinSeconds ||
		ra.MeanSeconds < float64(ra.MinSeconds) || ra.MeanSeconds > float64(ra.MaxSeconds) {
		t.Errorf("retry-after stats inconsistent: %+v", ra)
	}
}

// TestStatusTally exercises the aggregation edge cases directly:
// transport errors with no header, malformed and negative Retry-After
// values ignored, min/max/mean over a spread.
func TestStatusTally(t *testing.T) {
	tally := newStatusTally()
	tally.observe("error", "")
	tally.observe("200", "")
	tally.observe("429", "2")
	tally.observe("429", "5")
	tally.observe("429", "1")
	tally.observe("429", "not-a-number") // counted as a 429, excluded from stats
	tally.observe("429", "-3")           // negative: ditto
	counts, ra := tally.report()
	if counts["error"] != 1 || counts["200"] != 1 || counts["429"] != 5 {
		t.Errorf("counts = %v", counts)
	}
	if ra == nil || ra.Count != 3 || ra.MinSeconds != 1 || ra.MaxSeconds != 5 {
		t.Fatalf("retry-after = %+v, want count 3 min 1 max 5", ra)
	}
	if want := (2.0 + 5.0 + 1.0) / 3.0; ra.MeanSeconds != want {
		t.Errorf("mean = %f, want %f", ra.MeanSeconds, want)
	}

	// No 429s at all: the stats block must be omitted, not zero-valued.
	empty := newStatusTally()
	empty.observe("200", "")
	if _, ra := empty.report(); ra != nil {
		t.Errorf("clean run produced retry-after stats %+v", ra)
	}
}

// TestSingleColdKeyCompilesOnce: a concurrent burst at one cold key is
// the acceptance shape — exactly one compile regardless of worker
// count, everyone else a hit or a coalesced waiter.
func TestSingleColdKeyCompilesOnce(t *testing.T) {
	addr, srv := newHpfd(t, serve.Config{})
	rep, err := runLoad(loadConfig{
		Addr: addr, N: 64, C: 32, Keys: 1, Zipf: 0, Seed: 1,
		Timeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != 64 {
		t.Fatalf("ok = %d, want 64 (%d throttled, %d failed)", rep.OK, rep.Throttled, rep.Failed)
	}
	if rep.Server.Compiles != 1 {
		t.Errorf("single cold key compiled %d times, want exactly 1", rep.Server.Compiles)
	}
	st := srv.Stats()
	if st.Hits+st.Coalesced != 63 {
		t.Errorf("hits (%d) + coalesced (%d) = %d, want 63", st.Hits, st.Coalesced, st.Hits+st.Coalesced)
	}
	if rep.CoalescingEffectiveness < 0 || rep.CoalescingEffectiveness > 1 {
		t.Errorf("coalescing effectiveness %f out of range", rep.CoalescingEffectiveness)
	}
}

func TestRunLoadValidation(t *testing.T) {
	if _, err := runLoad(loadConfig{}); err == nil {
		t.Error("runLoad accepted an empty address")
	}
	if _, err := runLoad(loadConfig{Addr: "127.0.0.1:1", N: 0, C: 1, Keys: 1}); err == nil {
		t.Error("runLoad accepted n = 0")
	}
	// Unreachable server: fail fast on the pre-run scrape.
	if _, err := runLoad(loadConfig{Addr: "127.0.0.1:1", N: 1, C: 1, Keys: 1,
		Timeout: time.Second}); err == nil {
		t.Error("runLoad succeeded against an unreachable server")
	}
}

// TestMakeKeysDistinct: the working set must be n genuinely distinct
// cache keys, or -keys lies about the cache pressure it creates.
func TestMakeKeysDistinct(t *testing.T) {
	keys := makeKeys(512)
	seen := make(map[serve.PlanRequest]bool, len(keys))
	for _, k := range keys {
		if seen[k] {
			t.Fatalf("duplicate key %+v", k)
		}
		seen[k] = true
	}
}
