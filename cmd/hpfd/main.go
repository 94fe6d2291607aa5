// Command hpfd serves the paper's plan compiler as a multi-tenant HTTP
// service. One plan — the AM-table set, per-rank access sequences and
// selected node-code kernels for a (p, k, l, u, s) key — is a pure
// function of its key, so hpfd can hand out deterministic ETags,
// coalesce a thundering herd of identical cold misses onto a single
// compilation, and serve warm keys straight from its LRU.
//
//	hpfd                              # serve on localhost:8080
//	hpfd -addr :0                     # any free port (the bound address is logged)
//	hpfd -tenant-qps 50 -tenant-burst 20   # per-tenant token buckets (X-Tenant header)
//	hpfd -max-inflight 16             # bound concurrent compiles; overflow gets 429
//	hpfd -drain 30s                   # graceful-shutdown budget on SIGINT/SIGTERM
//	hpfd -pprof localhost:6060        # serve net/http/pprof alongside
//	hpfd -log-format json             # structured JSON logs (access log + lifecycle)
//	hpfd -trace-events 0              # disable the request-span ring tracer
//
// Every request gets a W3C trace identity: an inbound traceparent is
// joined, X-Request-ID is echoed or minted, and with tracing on the
// whole request path (admission, singleflight build/wait, table build,
// kernel selection) is recorded as spans — dump /trace and feed it to
// hpfprof -serve for per-phase attribution.
//
// Endpoints:
//
//	POST /v1/plan        {"p":4,"k":8,"l":4,"u":319,"s":9}  -> hpfd/v1 plan document
//	GET  /v1/plan?p=4&k=8&l=4&u=319&s=9                     -> same document, URL-addressable
//	POST /v1/plan/batch  {"requests":[...]}                 -> hpfd/batch/v1, per-key partial failure
//	GET  /metrics /healthz /trace                           -> shared telemetry surface
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/telemetry"
)

func main() {
	var (
		addr        = flag.String("addr", "localhost:8080", "address to serve on (\":0\" picks a free port)")
		cache       = flag.Int("cache", 4096, "compiled-plan LRU capacity (keys)")
		maxInflight = flag.Int("max-inflight", 64, "maximum concurrently running plan compilations; further cold misses get 429")
		tenantQPS   = flag.Float64("tenant-qps", 0, "per-tenant steady-state requests/second (X-Tenant header); 0 disables quotas")
		tenantBurst = flag.Float64("tenant-burst", 32, "per-tenant burst allowance")
		maxBatch    = flag.Int("max-batch", 256, "maximum keys in one /v1/plan/batch request")
		drain       = flag.Duration("drain", 10*time.Second, "graceful-shutdown budget: in-flight requests get this long to finish")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		logFormat   = flag.String("log-format", "text", "log output format: json or text")
		traceEvents = flag.Int("trace-events", 1<<14, "request-span ring-tracer capacity in events; 0 disables tracing")

		readHeaderTimeout = flag.Duration("read-header-timeout", 5*time.Second, "http.Server ReadHeaderTimeout (slowloris protection)")
		readTimeout       = flag.Duration("read-timeout", 30*time.Second, "http.Server ReadTimeout")
		idleTimeout       = flag.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout for keep-alive connections")
		maxHeaderBytes    = flag.Int("max-header-bytes", 1<<20, "http.Server MaxHeaderBytes")
	)
	flag.Parse()
	cfg := config{
		Addr:              *addr,
		Cache:             *cache,
		MaxInflight:       *maxInflight,
		TenantQPS:         *tenantQPS,
		TenantBurst:       *tenantBurst,
		MaxBatch:          *maxBatch,
		Drain:             *drain,
		PprofAddr:         *pprofAddr,
		LogFormat:         *logFormat,
		TraceEvents:       *traceEvents,
		TraceDisabled:     *traceEvents <= 0,
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		IdleTimeout:       *idleTimeout,
		MaxHeaderBytes:    *maxHeaderBytes,
	}
	if err := runConfig(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "hpfd:", err)
		os.Exit(1)
	}
}

type config struct {
	Addr        string
	Cache       int
	MaxInflight int
	TenantQPS   float64
	TenantBurst float64
	MaxBatch    int
	Drain       time.Duration
	PprofAddr   string
	LogFormat   string
	// TraceEvents is the request-span ring capacity; 0 takes the default
	// (16384). TraceDisabled turns the tracer off entirely (the CLI maps
	// -trace-events 0 here, so a zero-valued test config still traces).
	TraceEvents   int
	TraceDisabled bool

	// http.Server hardening; zero values take the flag defaults so a
	// directly constructed config (tests) still gets a hardened server.
	ReadHeaderTimeout time.Duration
	ReadTimeout       time.Duration
	IdleTimeout       time.Duration
	MaxHeaderBytes    int

	// afterStart, when set, is called with the bound listen address once
	// the server is accepting connections — the hook tests use to drive
	// requests at a ":0" instance.
	afterStart func(addr string)
	// stop, when non-nil, triggers the same graceful shutdown as
	// SIGINT/SIGTERM when it becomes readable — so tests can exercise the
	// drain path without signaling the test process.
	stop <-chan struct{}
	// logOut, when set, receives the log stream instead of os.Stdout.
	logOut io.Writer
}

func (c config) withDefaults() config {
	if c.LogFormat == "" {
		c.LogFormat = "text"
	}
	if c.ReadHeaderTimeout <= 0 {
		c.ReadHeaderTimeout = 5 * time.Second
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 30 * time.Second
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 2 * time.Minute
	}
	if c.MaxHeaderBytes <= 0 {
		c.MaxHeaderBytes = 1 << 20
	}
	if c.TraceEvents <= 0 {
		c.TraceEvents = 1 << 14
	}
	return c
}

// newLogger builds the service logger for the -log-format flag value.
func newLogger(format string, out io.Writer) (*slog.Logger, error) {
	switch format {
	case "json":
		return slog.New(slog.NewJSONHandler(out, nil)), nil
	case "text":
		return slog.New(slog.NewTextHandler(out, nil)), nil
	}
	return nil, fmt.Errorf("-log-format must be json or text, got %q", format)
}

// newHTTPServer builds the hardened listener-facing server: header and
// read deadlines plus a header-size cap so one slow or hostile client
// cannot pin a connection goroutine forever (slowloris protection).
func newHTTPServer(cfg config, handler http.Handler) *http.Server {
	return &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: cfg.ReadHeaderTimeout,
		ReadTimeout:       cfg.ReadTimeout,
		IdleTimeout:       cfg.IdleTimeout,
		MaxHeaderBytes:    cfg.MaxHeaderBytes,
	}
}

func runConfig(cfg config) error {
	cfg = cfg.withDefaults()
	out := cfg.logOut
	if out == nil {
		out = os.Stdout
	}
	logger, err := newLogger(cfg.LogFormat, out)
	if err != nil {
		return err
	}
	if !cfg.TraceDisabled {
		telemetry.StartTracing(0, cfg.TraceEvents)
		defer telemetry.StopTracing()
	}
	// Both listeners bind synchronously so a bad address fails the start
	// with an error naming the flag — not a goroutine logging after the
	// service claimed to be up — and so ":0" addresses can be reported
	// to the caller.
	if cfg.PprofAddr != "" {
		ln, err := net.Listen("tcp", cfg.PprofAddr)
		if err != nil {
			return fmt.Errorf("cannot serve on -pprof address: %w", err)
		}
		defer ln.Close()
		go http.Serve(ln, nil)
		logger.Info("pprof", slog.String("addr", ln.Addr().String()))
	}
	srv, err := serve.New(serve.Config{
		CacheCapacity: cfg.Cache,
		MaxInflight:   cfg.MaxInflight,
		TenantRate:    cfg.TenantQPS,
		TenantBurst:   cfg.TenantBurst,
		MaxBatch:      cfg.MaxBatch,
		MetricsName:   "hpfd.plans",
		Logger:        logger,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return fmt.Errorf("cannot serve on -addr address: %w", err)
	}
	hs := newHTTPServer(cfg, srv.Handler())
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	traceEvents := cfg.TraceEvents
	if cfg.TraceDisabled {
		traceEvents = 0
	}
	logger.Info("listening",
		slog.String("addr", ln.Addr().String()),
		slog.String("log_format", cfg.LogFormat),
		slog.Int("trace_events", traceEvents),
	)
	if cfg.TenantQPS > 0 {
		logger.Info("quota",
			slog.Float64("tenant_qps", cfg.TenantQPS),
			slog.Float64("tenant_burst", cfg.TenantBurst),
		)
	}
	if cfg.afterStart != nil {
		cfg.afterStart(ln.Addr().String())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case err := <-served:
		// Serve never returns nil; reaching here without Shutdown means
		// the listener failed underneath us.
		return fmt.Errorf("server failed: %w", err)
	case s := <-sig:
		logger.Info("draining", slog.String("reason", s.String()), slog.Duration("budget", cfg.Drain))
	case <-cfg.stop:
		logger.Info("draining", slog.String("reason", "stop requested"), slog.Duration("budget", cfg.Drain))
	}
	ctx, cancel := context.WithTimeout(context.Background(), cfg.Drain)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain exceeded %v: %w", cfg.Drain, err)
	}
	<-served // http.ErrServerClosed
	st := srv.Stats()
	logger.Info("drained",
		slog.Int64("cache_entries", st.Entries),
		slog.Int64("hits", st.Hits),
		slog.Int64("compiles", st.Misses),
		slog.Int64("coalesced", st.Coalesced),
	)
	return nil
}
