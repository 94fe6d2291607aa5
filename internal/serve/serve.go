// Package serve is the hpfd plan-compilation service: an HTTP/JSON
// front end over the paper's address-generation compiler. A plan — the
// AM-table set, per-rank access sequences and selected node-code
// kernels for one (p, k, l, u, s) key — is a pure function of its key,
// which makes it ideal service material: responses carry deterministic
// ETags so clients and proxies can cache, identical concurrent misses
// coalesce onto one compilation (the plancache singleflight path), and
// a warm key is served straight from memory.
//
// The operational surface is deliberately boring: per-tenant
// token-bucket quotas keyed by the X-Tenant header, bounded in-flight
// compiles with 429 + Retry-After on overload, /metrics—/healthz—/trace
// from the shared telemetry handler, and hpfd.* counters and histograms
// that count each request once: hpfd.requests, one hpfd.responses_*
// outcome per HTTP response, hpfd.request_ns and hpfd.compile_ns.
// Per-tenant detail lives in the access log, not in metric names.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"repro/internal/plancache"
	"repro/internal/telemetry"
)

// Config parameterizes a Server. The zero value is usable: every field
// has a serving-grade default.
type Config struct {
	// CacheCapacity bounds the compiled-plan LRU (default 4096 keys).
	CacheCapacity int
	// MaxInflight bounds concurrently running compiles; further cold
	// misses are refused with 429 + Retry-After (default 64).
	MaxInflight int
	// TenantRate is the per-tenant steady-state request rate in
	// requests/second; <= 0 disables quota enforcement (the default).
	TenantRate float64
	// TenantBurst is the per-tenant burst allowance (default 32).
	TenantBurst float64
	// MaxBatch bounds the number of keys in one batch request
	// (default 256).
	MaxBatch int
	// MetricsName, when non-empty, registers the plan cache's counters
	// as plancache.<MetricsName>.* gauges in the default telemetry
	// registry; Close unregisters them. cmd/hpfd uses "hpfd.plans".
	MetricsName string
	// Logger, when non-nil, receives a structured access-log record per
	// request plus service lifecycle events. nil disables access logging.
	Logger *slog.Logger

	// compileHook, when set, runs inside every plan compilation (after
	// admission, before the actual build) — the test seam that makes
	// compiles observably slow for shutdown-drain and herd tests.
	compileHook func(PlanRequest)
}

func (c Config) withDefaults() Config {
	if c.CacheCapacity <= 0 {
		c.CacheCapacity = 4096
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 64
	}
	if c.TenantBurst <= 0 {
		c.TenantBurst = 32
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	return c
}

// Server compiles and serves plans. Create with New, mount Handler on
// an http.Server, and Close when done (tests create many servers; Close
// releases the telemetry gauge names).
type Server struct {
	cfg    Config
	cache  *plancache.Cache[PlanRequest, *compiledPlan]
	quotas *quotas
	sem    chan struct{}
	mux    *http.ServeMux
	logger *slog.Logger

	requests    *telemetry.Counter
	ok          *telemetry.Counter
	notModified *telemetry.Counter
	quota429    *telemetry.Counter
	overload429 *telemetry.Counter
	badRequest  *telemetry.Counter
	failures    *telemetry.Counter
	inflight    *telemetry.Gauge
	compileNs   *telemetry.Histogram
	requestNs   *telemetry.Histogram
}

func hashPlanRequest(r PlanRequest) uint64 {
	h := plancache.Mix(plancache.Mix(plancache.Seed, r.P), r.K)
	h = plancache.Mix(plancache.Mix(h, r.L), r.U)
	return plancache.Mix(plancache.Mix(h, r.S), r.N)
}

// New builds a Server from cfg. The returned server is ready to serve;
// registering its cache gauges (MetricsName) is the only fallible step.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	reg := telemetry.Default()
	s := &Server{
		cfg:    cfg,
		cache:  plancache.New[PlanRequest, *compiledPlan](cfg.CacheCapacity, hashPlanRequest),
		quotas: newQuotas(cfg.TenantRate, cfg.TenantBurst),
		sem:    make(chan struct{}, cfg.MaxInflight),

		requests:    reg.Counter("hpfd.requests"),
		ok:          reg.Counter("hpfd.responses_ok"),
		notModified: reg.Counter("hpfd.responses_304"),
		quota429:    reg.Counter("hpfd.responses_429_quota"),
		overload429: reg.Counter("hpfd.responses_429_overload"),
		badRequest:  reg.Counter("hpfd.responses_bad_request"),
		failures:    reg.Counter("hpfd.responses_error"),
		inflight:    reg.Gauge("hpfd.inflight_compiles"),
		compileNs:   reg.Histogram("hpfd.compile_ns"),
		requestNs:   reg.Histogram("hpfd.request_ns"),
	}
	if cfg.MetricsName != "" {
		if err := s.cache.Register(cfg.MetricsName); err != nil {
			return nil, err
		}
	}
	s.logger = cfg.Logger
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/plan", s.handlePlan)
	s.mux.HandleFunc("/v1/plan/batch", s.handleBatch)
	tel := telemetry.Handler()
	s.mux.Handle("/metrics", tel)
	s.mux.Handle("/healthz", tel)
	s.mux.Handle("/trace", tel)
	s.mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "hpfd plan-compilation service\nendpoints: POST|GET /v1/plan  POST /v1/plan/batch  /metrics /healthz /trace\n")
	})
	return s, nil
}

// Handler returns the service's HTTP surface, wrapped in the
// request-scoped observability middleware (trace identity, root span,
// access log).
func (s *Server) Handler() http.Handler { return s.observe(s.mux) }

// Stats snapshots the compiled-plan cache counters (Misses = plans
// actually compiled, Coalesced = herd waiters that reused an in-flight
// compile).
func (s *Server) Stats() plancache.Stats { return s.cache.Stats() }

// Close releases the telemetry gauge names registered by New so another
// server (a test, a restart) can reuse them. It does not stop in-flight
// requests; that is the owning http.Server's Shutdown.
func (s *Server) Close() {
	reg := telemetry.Default()
	if s.cfg.MetricsName != "" {
		for _, suffix := range []string{"hits", "misses", "evictions", "entries", "coalesced"} {
			reg.UnregisterGaugeFunc("plancache." + s.cfg.MetricsName + "." + suffix)
		}
	}
}

// errOverloaded marks a compile refused by admission control; the
// handler maps it to 429 + Retry-After.
var errOverloaded = errors.New("serve: compile capacity exhausted")

// plan returns the compiled plan for req (normalizing it first),
// through the coalescing cache, reporting how the lookup was satisfied.
// Admission control bounds only actual compiles: cache hits and
// coalesced waiters are never refused.
//
// The span layout mirrors the singleflight structure: the winning
// caller's trace carries an hpfd.build span (with hpfd.tables /
// hpfd.select / hpfd.encode children from compile); the builder
// publishes that span's ID through the flight note, and every coalesced
// waiter records an hpfd.wait span in its *own* trace whose Link names
// the build span — the cross-trace edge hpfprof -serve stitches the
// coalescing tree from.
func (s *Server) plan(ctx context.Context, req PlanRequest) (*compiledPlan, plancache.FlightOutcome, error) {
	key, err := req.normalize()
	if err != nil {
		return nil, plancache.FlightHit, &badRequestError{err}
	}
	build := func(note func(uint64)) (*compiledPlan, error) {
		bctx, bspan := telemetry.StartSpan(ctx, "hpfd.build")
		if bspan.Recording() {
			note(bspan.Context().Span)
		}
		defer bspan.End()
		select {
		case s.sem <- struct{}{}:
		default:
			return nil, errOverloaded
		}
		defer func() { <-s.sem }()
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		if s.cfg.compileHook != nil {
			s.cfg.compileHook(key)
		}
		t0 := time.Now()
		cp, err := compile(bctx, key)
		s.compileNs.Observe(time.Since(t0).Nanoseconds())
		return cp, err
	}
	var waitStart int64
	if tr := telemetry.ActiveTracer(); tr != nil {
		waitStart = tr.Now()
	}
	cp, outcome, buildSpan, err := s.cache.GetOrComputeFlight(key, build)
	if outcome == plancache.FlightCoalesced {
		// The wait span is only known to have existed once the winning
		// build finishes, so it is recorded after the fact, backdated to
		// when this caller started waiting.
		_, ws := telemetry.StartSpanAt(ctx, "hpfd.wait", waitStart)
		ws.EndLink(buildSpan)
	}
	return cp, outcome, err
}

// badRequestError wraps a key-validation failure so the handlers can
// distinguish caller errors (400) from service failures (500).
type badRequestError struct{ err error }

func (e *badRequestError) Error() string { return e.err.Error() }

// maxBodyBytes bounds request bodies; a plan key is a handful of
// integers, a batch a few thousand.
const maxBodyBytes = 1 << 20

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	defer func() { s.requestNs.Observe(time.Since(t0).Nanoseconds()) }()
	s.requests.Inc()
	if !s.admitTenant(w, r) {
		return
	}
	var req PlanRequest
	switch r.Method {
	case http.MethodGet:
		var err error
		if req, err = planRequestFromQuery(r); err != nil {
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
	case http.MethodPost:
		if err := decodeBody(r, &req); err != nil {
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
	default:
		w.Header().Set("Allow", "GET, POST")
		s.writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	cp, outcome, err := s.plan(r.Context(), req)
	if err != nil {
		setOutcome(r.Context(), "error")
		s.writePlanError(w, err)
		return
	}
	setOutcome(r.Context(), outcome.String())
	// The plan is immutable and keyed by its inputs, so the ETag is
	// permanent: a client or proxy holding a matching copy never needs
	// the body again.
	w.Header().Set("ETag", cp.etag)
	w.Header().Set("Cache-Control", "public, max-age=86400, immutable")
	if r.Header.Get("If-None-Match") == cp.etag {
		s.notModified.Inc()
		w.WriteHeader(http.StatusNotModified)
		return
	}
	s.ok.Inc()
	w.Header().Set("Content-Type", "application/json")
	_, span := telemetry.StartSpan(r.Context(), "hpfd.write")
	w.Write(cp.body)
	span.End()
}

// batchRequest and batchResult are the /v1/plan/batch wire types. Each
// key succeeds or fails independently; one bad key never spoils the
// batch (partial failure, not all-or-nothing).
type batchRequest struct {
	Requests []PlanRequest `json:"requests"`
}

type batchResult struct {
	ETag  string          `json:"etag,omitempty"`
	Plan  json.RawMessage `json:"plan,omitempty"`
	Error string          `json:"error,omitempty"`
}

type batchResponse struct {
	Schema  string        `json:"schema"` // "hpfd/batch/v1"
	Results []batchResult `json:"results"`
}

// BatchSchema tags the batch response document format.
const BatchSchema = "hpfd/batch/v1"

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	defer func() { s.requestNs.Observe(time.Since(t0).Nanoseconds()) }()
	s.requests.Inc()
	if !s.admitTenant(w, r) {
		return
	}
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		s.writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	var breq batchRequest
	if err := decodeBody(r, &breq); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(breq.Requests) == 0 {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("empty batch"))
		return
	}
	if len(breq.Requests) > s.cfg.MaxBatch {
		s.writeError(w, http.StatusBadRequest,
			fmt.Errorf("batch of %d keys exceeds the limit %d", len(breq.Requests), s.cfg.MaxBatch))
		return
	}
	// Per-key failures stay in the batch body; the metrics count the
	// one HTTP response.
	resp := batchResponse{Schema: BatchSchema, Results: make([]batchResult, len(breq.Requests))}
	for i, req := range breq.Requests {
		cp, _, err := s.plan(r.Context(), req)
		if err != nil {
			resp.Results[i].Error = err.Error()
			continue
		}
		resp.Results[i].ETag = cp.etag
		resp.Results[i].Plan = json.RawMessage(cp.body)
	}
	s.ok.Inc()
	w.Header().Set("Content-Type", "application/json")
	_, span := telemetry.StartSpan(r.Context(), "hpfd.write")
	json.NewEncoder(w).Encode(resp)
	span.End()
}

// decodeBody decodes a POST body that must hold exactly one JSON value:
// anything but whitespace after it is refused.
func decodeBody(r *http.Request, v any) error {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err == nil {
		err = json.Unmarshal(body, v)
	}
	if err != nil {
		return fmt.Errorf("invalid JSON body: %w", err)
	}
	return nil
}

// admitTenant applies the per-tenant token bucket; on refusal it writes
// the 429 and reports false.
func (s *Server) admitTenant(w http.ResponseWriter, r *http.Request) bool {
	_, span := telemetry.StartSpan(r.Context(), "hpfd.admission")
	ok, retryAfter := s.quotas.allow(r.Header.Get("X-Tenant"))
	span.End()
	if ok {
		return true
	}
	setOutcome(r.Context(), "quota")
	s.quota429.Inc()
	w.Header().Set("Retry-After", strconv.FormatInt(retryAfterSeconds(retryAfter), 10))
	s.writeErrorStatus(w, http.StatusTooManyRequests, fmt.Errorf("tenant quota exhausted"))
	return false
}

// retryAfterSeconds rounds a refill duration up to whole seconds, with
// a floor of 1 (Retry-After: 0 invites an immediate retry storm).
func retryAfterSeconds(d time.Duration) int64 {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// writePlanError maps a plan() failure onto the right status code.
func (s *Server) writePlanError(w http.ResponseWriter, err error) {
	var bad *badRequestError
	switch {
	case errors.As(err, &bad):
		s.writeError(w, http.StatusBadRequest, err)
	case errors.Is(err, errOverloaded):
		s.overload429.Inc()
		w.Header().Set("Retry-After", "1")
		s.writeErrorStatus(w, http.StatusTooManyRequests, err)
	default:
		s.failures.Inc()
		s.writeErrorStatus(w, http.StatusInternalServerError, err)
	}
}

// writeError counts a bad request and writes the error document.
func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	s.badRequest.Inc()
	s.writeErrorStatus(w, status, err)
}

// writeErrorStatus writes the JSON error document without counting.
func (s *Server) writeErrorStatus(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// planRequestFromQuery parses ?p=&k=&l=&u=&s=&n= so plans are
// addressable by URL — the GET form proxies and browsers can cache.
func planRequestFromQuery(r *http.Request) (PlanRequest, error) {
	var req PlanRequest
	q := r.URL.Query()
	for _, f := range []struct {
		name     string
		dst      *int64
		required bool
	}{
		{"p", &req.P, true},
		{"k", &req.K, true},
		{"l", &req.L, false},
		{"u", &req.U, true},
		{"s", &req.S, true},
		{"n", &req.N, false},
	} {
		v := q.Get(f.name)
		if v == "" {
			if f.required {
				return req, fmt.Errorf("missing query parameter %q", f.name)
			}
			continue
		}
		x, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return req, fmt.Errorf("query parameter %q: %v", f.name, err)
		}
		*f.dst = x
	}
	return req, nil
}
