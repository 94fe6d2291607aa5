package serve

import (
	"context"
	"log/slog"
	"net/http"
	"time"

	"repro/internal/telemetry"
)

// Request-scoped observability: the middleware that gives every request
// a trace identity, a root span and an access-log line. Request counts
// and latencies are the Server's own hpfd.* metrics; the access log
// (tenant, status and dur_ns per request) is the per-tenant record.
//
// Identity rules follow W3C trace-context: an inbound traceparent
// header is adopted (same trace ID, inbound span as remote parent) so
// hpfd joins the caller's distributed trace; otherwise a fresh trace is
// minted. X-Request-ID is echoed when the caller supplied one and
// otherwise set to the trace ID, and the response always carries a
// traceparent naming hpfd's own root span — so a client can correlate
// its request with the server's exported trace even when tracing was
// enabled only server-side.

// reqObs is the per-request mutable observation record handlers add to
// (currently just the cache outcome) and the access log reads back.
type reqObs struct {
	outcome string
}

type obsKey struct{}

// setOutcome annotates the in-flight request with its cache outcome
// ("hit", "built", "coalesced") or terminal disposition ("quota",
// "error"). No-op outside a request.
func setOutcome(ctx context.Context, outcome string) {
	if o, ok := ctx.Value(obsKey{}).(*reqObs); ok {
		o.outcome = outcome
	}
}

// routeLabel maps a request path onto the bounded route vocabulary of
// the access log.
func routeLabel(path string) string {
	switch path {
	case "/v1/plan":
		return "plan"
	case "/v1/plan/batch":
		return "batch"
	case "/metrics":
		return "metrics"
	case "/healthz":
		return "healthz"
	case "/trace":
		return "trace"
	case "/":
		return "index"
	}
	return "other"
}

// statusWriter captures the status code and body size the handler
// produced, for the access log.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// observe wraps the mux with the request-scoped observability layer.
func (s *Server) observe(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()

		// Trace identity: join the caller's trace or start one.
		var parent uint64
		sc, ok := telemetry.ParseTraceparent(r.Header.Get("traceparent"))
		if ok {
			parent = sc.Span
		} else {
			sc.TraceHi, sc.TraceLo = telemetry.NewTraceID()
		}
		sc.Span = telemetry.NewSpanID()

		requestID := r.Header.Get("X-Request-ID")
		if requestID == "" {
			requestID = sc.TraceID()
		}
		h := w.Header()
		h.Set("X-Request-ID", requestID)
		h.Set("traceparent", telemetry.FormatTraceparent(sc))

		ctx := context.WithValue(r.Context(), obsKey{}, &reqObs{})
		ctx, span := telemetry.StartRootSpan(ctx, "hpfd.request", sc, parent)

		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r.WithContext(ctx))

		span.End()
		if s.logger != nil {
			o, _ := ctx.Value(obsKey{}).(*reqObs)
			s.logger.LogAttrs(ctx, slog.LevelInfo, "request",
				slog.String("route", routeLabel(r.URL.Path)),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.String("tenant", r.Header.Get("X-Tenant")),
				slog.Int("status", sw.status),
				slog.Int64("bytes", sw.bytes),
				slog.Int64("dur_ns", time.Since(t0).Nanoseconds()),
				slog.String("cache", o.outcome),
				slog.String("trace", sc.TraceID()),
				slog.String("span", sc.SpanID()),
				slog.String("request_id", requestID),
			)
		}
	})
}
