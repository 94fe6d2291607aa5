package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/plancache"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

func postPlan(t *testing.T, url string, req PlanRequest, header http.Header) *http.Response {
	t.Helper()
	body, _ := json.Marshal(req)
	hr, err := http.NewRequest(http.MethodPost, url+"/v1/plan", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, vs := range header {
		hr.Header[k] = vs
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodePlan(t *testing.T, resp *http.Response) PlanDoc {
	t.Helper()
	defer resp.Body.Close()
	var doc PlanDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("invalid plan document: %v", err)
	}
	return doc
}

// TestPlanPaperExample compiles the paper's running example
// (p=4, k=8, section 4:…:9) and checks processor 1 against the §5
// golden values: start index 13, AM table [3 12 15 12 3 12 3 12].
func TestPlanPaperExample(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postPlan(t, ts.URL, PlanRequest{P: 4, K: 8, L: 4, U: 319, S: 9, N: 320}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if cc := resp.Header.Get("Cache-Control"); !strings.Contains(cc, "immutable") {
		t.Errorf("Cache-Control = %q, want an immutable policy", cc)
	}
	if et := resp.Header.Get("ETag"); et == "" {
		t.Error("response has no ETag")
	}
	doc := decodePlan(t, resp)
	if doc.Schema != PlanDocSchema {
		t.Errorf("schema = %q", doc.Schema)
	}
	if len(doc.Ranks) != 4 {
		t.Fatalf("got %d ranks, want 4", len(doc.Ranks))
	}
	r1 := doc.Ranks[1]
	if r1.Start != 13 {
		t.Errorf("rank 1 start = %d, want 13", r1.Start)
	}
	wantGaps := []int64{3, 12, 15, 12, 3, 12, 3, 12}
	if len(r1.Gaps) != len(wantGaps) {
		t.Fatalf("rank 1 gaps = %v, want %v", r1.Gaps, wantGaps)
	}
	for i, g := range wantGaps {
		if r1.Gaps[i] != g {
			t.Fatalf("rank 1 gaps = %v, want %v", r1.Gaps, wantGaps)
		}
	}
	if r1.Kernel == "" || r1.Kernel == "none" {
		t.Errorf("rank 1 kernel = %q", r1.Kernel)
	}
	var total int64
	for _, r := range doc.Ranks {
		total += r.Count
	}
	if total != doc.TotalCount || total != 36 { // |{4, 13, …, 319}| = 36
		t.Errorf("total count = %d (doc says %d), want 36", total, doc.TotalCount)
	}
}

// TestGetFormMatchesPost: the URL-addressable GET form compiles the
// same key to the same bytes and the same ETag as the POST form.
func TestGetFormMatchesPost(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post := postPlan(t, ts.URL, PlanRequest{P: 4, K: 8, L: 4, U: 319, S: 9, N: 320}, nil)
	postBody, _ := io.ReadAll(post.Body)
	post.Body.Close()
	get, err := http.Get(ts.URL + "/v1/plan?p=4&k=8&l=4&u=319&s=9&n=320")
	if err != nil {
		t.Fatal(err)
	}
	getBody, _ := io.ReadAll(get.Body)
	get.Body.Close()
	if !bytes.Equal(postBody, getBody) {
		t.Error("GET and POST bodies differ for the same key")
	}
	if pe, ge := post.Header.Get("ETag"), get.Header.Get("ETag"); pe != ge || pe == "" {
		t.Errorf("ETags differ: POST %q, GET %q", pe, ge)
	}
}

// TestETag304: a conditional request with the plan's ETag is answered
// 304 with no body, and the ETag is deterministic across server
// instances (a restarted hpfd honors ETags minted by its predecessor).
func TestETag304(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := PlanRequest{P: 8, K: 16, L: 0, U: 999, S: 7, N: 1000}
	first := postPlan(t, ts.URL, req, nil)
	etag := first.Header.Get("ETag")
	first.Body.Close()
	if etag == "" {
		t.Fatal("no ETag on first response")
	}

	second := postPlan(t, ts.URL, req, http.Header{"If-None-Match": {etag}})
	defer second.Body.Close()
	if second.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional request = %d, want 304", second.StatusCode)
	}
	if body, _ := io.ReadAll(second.Body); len(body) != 0 {
		t.Errorf("304 carried a %d-byte body", len(body))
	}
	if got := second.Header.Get("ETag"); got != etag {
		t.Errorf("304 ETag = %q, want %q", got, etag)
	}

	// A fresh server (cold cache) must mint the identical ETag.
	_, ts2 := newTestServer(t, Config{})
	other := postPlan(t, ts2.URL, req, http.Header{"If-None-Match": {etag}})
	other.Body.Close()
	if other.StatusCode != http.StatusNotModified {
		t.Errorf("restarted server answered %d to the old ETag, want 304", other.StatusCode)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, req := range map[string]PlanRequest{
		"zero procs":     {P: 0, K: 8, L: 0, U: 99, S: 3},
		"zero stride":    {P: 4, K: 8, L: 0, U: 99, S: 0},
		"empty section":  {P: 4, K: 8, L: 50, U: 10, S: 3},
		"out of bounds":  {P: 4, K: 8, L: 0, U: 99, S: 3, N: 50},
		"oversized p":    {P: 1 << 20, K: 8, L: 0, U: 99, S: 3},
		"negative lower": {P: 4, K: 8, L: -1, U: 99, S: 3},
		"oversized p·k":  {P: 1 << 16, K: 1 << 20, L: 0, U: 1<<40 - 1, S: 3},
		"max u, no n":    {P: 4, K: 8, L: 0, U: math.MaxInt64, S: 3},
		"huge stride":    {P: 4, K: 8, L: 0, U: 100, S: math.MaxInt64},
		"stride > 2⁴⁰":   {P: 1024, K: 4096, L: 0, U: 100, S: 2199023255553},
	} {
		resp := postPlan(t, ts.URL, req, nil)
		var doc map[string]string
		json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
		if doc["error"] == "" {
			t.Errorf("%s: no error document", name)
		}
		// The defaulted extent n = u+1 must not wrap into the message.
		if strings.Contains(doc["error"], "-9223372036854775808") {
			t.Errorf("%s: error %q reports a wrapped extent", name, doc["error"])
		}
	}
	// Malformed JSON and a valid body followed by anything but
	// whitespace are refused with an error document.
	const key = `{"p":4,"k":8,"l":4,"u":319,"s":9}`
	for _, c := range []struct{ path, body string }{
		{"/v1/plan", "{"},
		{"/v1/plan", key + " trailing"},
		{"/v1/plan", key + `{"p":1}`},
		{"/v1/plan/batch", `{"requests":[` + key + `]} x`},
	} {
		resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]string
		json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || doc["error"] == "" {
			t.Errorf("POST %s %q: status = %d, error %q; want 400 with an error", c.path, c.body, resp.StatusCode, doc["error"])
		}
	}
	// Whitespace after the value is fine.
	resp, err := http.Post(ts.URL+"/v1/plan", "application/json", strings.NewReader(key+" \n\t"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("trailing whitespace: status = %d, want 200", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/plan?p=4&k=8&u=99")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing query params: status = %d, want 400", resp.StatusCode)
	}
}

// TestTenantQuota: a tenant that exhausts its burst gets 429 with a
// Retry-After, while other tenants are unaffected; after the bucket
// refills the tenant is served again.
func TestTenantQuota(t *testing.T) {
	srv, ts := newTestServer(t, Config{TenantRate: 50, TenantBurst: 2})
	clock := time.Unix(1000, 0)
	srv.quotas.now = func() time.Time { return clock }

	req := PlanRequest{P: 4, K: 8, L: 0, U: 99, S: 3}
	tenantA := http.Header{"X-Tenant": {"team-a"}}
	for i := 0; i < 2; i++ {
		resp := postPlan(t, ts.URL, req, tenantA)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d within burst = %d, want 200", i, resp.StatusCode)
		}
	}
	limited := postPlan(t, ts.URL, req, tenantA)
	limited.Body.Close()
	if limited.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-burst request = %d, want 429", limited.StatusCode)
	}
	if ra := limited.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("429 Retry-After = %q, want a positive whole-second delay", ra)
	}
	// Another tenant still has its full burst.
	other := postPlan(t, ts.URL, req, http.Header{"X-Tenant": {"team-b"}})
	other.Body.Close()
	if other.StatusCode != http.StatusOK {
		t.Errorf("other tenant = %d, want 200", other.StatusCode)
	}
	// One refill interval later the limited tenant is served again.
	clock = clock.Add(time.Second)
	retry := postPlan(t, ts.URL, req, tenantA)
	retry.Body.Close()
	if retry.StatusCode != http.StatusOK {
		t.Errorf("post-refill request = %d, want 200", retry.StatusCode)
	}
}

// TestBatchPartialFailure: invalid keys in a batch fail item-by-item
// without spoiling the valid ones.
func TestBatchPartialFailure(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body, _ := json.Marshal(batchRequest{Requests: []PlanRequest{
		{P: 4, K: 8, L: 4, U: 319, S: 9, N: 320},
		{P: 0, K: 8, L: 0, U: 99, S: 3}, // invalid: p = 0
		{P: 2, K: 4, L: 0, U: 63, S: 5},
	}})
	resp, err := http.Post(ts.URL+"/v1/plan/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d, want 200", resp.StatusCode)
	}
	var bresp batchResponse
	if err := json.NewDecoder(resp.Body).Decode(&bresp); err != nil {
		t.Fatal(err)
	}
	if bresp.Schema != BatchSchema {
		t.Errorf("schema = %q", bresp.Schema)
	}
	if len(bresp.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(bresp.Results))
	}
	for _, i := range []int{0, 2} {
		res := bresp.Results[i]
		if res.Error != "" || len(res.Plan) == 0 || res.ETag == "" {
			t.Errorf("result %d should have succeeded: %+v", i, res)
			continue
		}
		var doc PlanDoc
		if err := json.Unmarshal(res.Plan, &doc); err != nil || doc.Schema != PlanDocSchema {
			t.Errorf("result %d plan invalid: %v", i, err)
		}
	}
	if bad := bresp.Results[1]; bad.Error == "" || len(bad.Plan) != 0 {
		t.Errorf("result 1 should have failed: %+v", bad)
	}

	// Oversized and empty batches are refused outright.
	for name, reqs := range map[string][]PlanRequest{
		"empty":     {},
		"oversized": make([]PlanRequest, 5),
	} {
		body, _ := json.Marshal(batchRequest{Requests: reqs})
		resp, err := http.Post(ts.URL+"/v1/plan/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		want := http.StatusBadRequest
		if name == "oversized" && resp.StatusCode == http.StatusOK {
			continue // default MaxBatch is 256; only fails with a smaller cap below
		}
		if name == "empty" && resp.StatusCode != want {
			t.Errorf("%s batch: status = %d, want %d", name, resp.StatusCode, want)
		}
	}
	_, tsSmall := newTestServer(t, Config{MaxBatch: 2})
	body, _ = json.Marshal(batchRequest{Requests: make([]PlanRequest, 3)})
	resp, err = http.Post(tsSmall.URL+"/v1/plan/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("3-key batch with MaxBatch 2: status = %d, want 400", resp.StatusCode)
	}
}

// TestHerdCoalesces is the coalescing acceptance test at the HTTP
// layer: 64 concurrent requests for one cold key must trigger exactly
// one compilation and one AM-table-set build, with the other 63
// coalescing onto it — all 64 answered 200 with identical bodies.
func TestHerdCoalesces(t *testing.T) {
	const herd = 64
	plancache.ResetTables()
	var srv *Server
	cfg := Config{compileHook: func(PlanRequest) {
		// Hold the single build until all waiters have coalesced, making
		// the miss/coalesced accounting below deterministic.
		deadline := time.Now().Add(20 * time.Second)
		for srv.Stats().Coalesced < herd-1 && time.Now().Before(deadline) {
			runtime.Gosched()
		}
	}}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	req := PlanRequest{P: 8, K: 32, L: 2, U: 4095, S: 11, N: 4096}
	bodies := make([][]byte, herd)
	codes := make([]int, herd)
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(req)
			resp, err := http.Post(ts.URL+"/v1/plan", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()
	for i := range codes {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d returned a different body", i)
		}
	}
	st := srv.Stats()
	if st.Misses != 1 {
		t.Errorf("herd compiled %d times, want exactly 1 (stats %+v)", st.Misses, st)
	}
	if st.Coalesced != herd-1 {
		t.Errorf("coalesced waiters = %d, want %d", st.Coalesced, herd-1)
	}
	if tb := plancache.TableStats().Misses; tb != 1 {
		t.Errorf("herd built %d table sets for one key, want 1", tb)
	}
}

// TestAdmissionControl: with one compile slot and a blocked compile, a
// second cold key is refused 429 + Retry-After; once the slot frees,
// the refused key compiles fine (the overload error was not cached).
func TestAdmissionControl(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	var once sync.Once
	cfg := Config{MaxInflight: 1, compileHook: func(PlanRequest) {
		once.Do(func() { entered <- struct{}{} })
		<-release
	}}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	slow := PlanRequest{P: 4, K: 8, L: 0, U: 999, S: 3, N: 1000}
	fast := PlanRequest{P: 4, K: 8, L: 0, U: 999, S: 5, N: 1000}
	done := make(chan int, 1)
	go func() {
		resp := postPlan(t, ts.URL, slow, nil)
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	<-entered // the only compile slot is now held

	refused := postPlan(t, ts.URL, fast, nil)
	refused.Body.Close()
	if refused.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second cold key while saturated = %d, want 429", refused.StatusCode)
	}
	if refused.Header.Get("Retry-After") == "" {
		t.Error("overload 429 has no Retry-After")
	}

	close(release)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("held request finished %d, want 200", code)
	}
	retry := postPlan(t, ts.URL, fast, nil)
	retry.Body.Close()
	if retry.StatusCode != http.StatusOK {
		t.Errorf("retry after the slot freed = %d, want 200 (overload must not be cached)", retry.StatusCode)
	}
}

// TestGracefulShutdownDrains: Shutdown must wait for an in-flight
// compile to finish and its response to be written, then stop accepting
// new connections.
func TestGracefulShutdownDrains(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	var once sync.Once
	srv, err := New(Config{compileHook: func(PlanRequest) {
		once.Do(func() { started <- struct{}{} })
		<-release
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	url := "http://" + ln.Addr().String()

	type result struct {
		code int
		body []byte
	}
	inflight := make(chan result, 1)
	go func() {
		body, _ := json.Marshal(PlanRequest{P: 4, K: 8, L: 4, U: 319, S: 9, N: 320})
		resp, err := http.Post(url+"/v1/plan", "application/json", bytes.NewReader(body))
		if err != nil {
			inflight <- result{code: -1}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		inflight <- result{code: resp.StatusCode, body: b}
	}()
	<-started // the compile is now in flight

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- hs.Shutdown(ctx)
	}()
	// Shutdown must not return while the compile is still held.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) before the in-flight compile finished", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	res := <-inflight
	if res.code != http.StatusOK {
		t.Fatalf("drained request finished %d, want 200", res.code)
	}
	var doc PlanDoc
	if err := json.Unmarshal(res.body, &doc); err != nil || doc.Schema != PlanDocSchema {
		t.Errorf("drained response is not a plan document: %v", err)
	}
	// New connections are refused after shutdown.
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Error("server accepted a connection after Shutdown returned")
	}
}

// TestOpsEndpoints: the service mounts the shared telemetry surface and
// publishes its own hpfd.* metrics plus the plan cache's gauges.
func TestOpsEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{MetricsName: fmt.Sprintf("hpfd.test%d", time.Now().UnixNano())})
	resp := postPlan(t, ts.URL, PlanRequest{P: 4, K: 8, L: 0, U: 99, S: 3}, nil)
	resp.Body.Close()

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", mresp.StatusCode)
	}
	for _, want := range []string{"hpfd_requests", "hpfd_responses_ok", "hpfd_compile_ns", "plancache_hpfd_test"} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK || !strings.Contains(string(health), "ok") {
		t.Errorf("/healthz = %d: %s", hresp.StatusCode, health)
	}
	iresp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	index, _ := io.ReadAll(iresp.Body)
	iresp.Body.Close()
	if !strings.Contains(string(index), "/v1/plan") {
		t.Errorf("index page does not list endpoints: %s", index)
	}
}

// TestWarmKeyIsCached: the second request for a key is a cache hit —
// no recompilation, identical bytes.
func TestWarmKeyIsCached(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	req := PlanRequest{P: 4, K: 8, L: 0, U: 499, S: 7, N: 500}
	for i := 0; i < 3; i++ {
		resp := postPlan(t, ts.URL, req, nil)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: %d", i, resp.StatusCode)
		}
	}
	st := srv.Stats()
	if st.Misses != 1 || st.Hits != 2 {
		t.Errorf("stats = %+v, want 1 miss and 2 hits", st)
	}
}
