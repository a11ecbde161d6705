package server

// This file is the registry's HTTP metrics layer: every route is
// wrapped by instrument, which maintains per-endpoint request
// counters (by status class), fixed-bucket latency histograms and an
// in-flight gauge — all atomics, so handlers never serialize on a
// metrics lock — and optionally emits one structured access-log line
// per request. GET /metrics renders everything (plus the registry's
// run counters) in Prometheus text exposition format, in a fixed
// endpoint order so the body is deterministic for a given counter
// state.
//
// internal/server is not an engine package: nothing a report or
// TuneResult is computed from lives here, so the wall-clock reads
// below are outside the determinism contract.

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// Endpoint labels of the instrumented routes, in the fixed order the
// Prometheus exposition renders them.
const (
	epList    = "reports.list"
	epGet     = "reports.get"
	epPut     = "reports.put"
	epProbe   = "reports.probe"
	epRun     = "run"
	epTune    = "tune"
	epStats   = "stats"
	epHealth  = "health"
	epMetrics = "metrics"
)

// endpoints lists every instrumented endpoint in exposition order.
var endpoints = []string{epList, epGet, epPut, epProbe, epRun, epTune, epStats, epHealth, epMetrics}

// statsExcluded marks the observability endpoints left out of the
// HTTPRequests map of /v1/stats: scraping stats, health or metrics
// must not change the next stats body (the determinism tests pin
// consecutive GET /v1/stats responses byte-identical).
var statsExcluded = map[string]bool{epStats: true, epHealth: true, epMetrics: true}

// latencyBuckets are the histogram bucket upper bounds in seconds.
// Fixed at compile time so every exposition carries the same schema.
var latencyBuckets = [...]float64{0.0005, 0.001, 0.005, 0.025, 0.1, 0.5, 1, 2.5, 10}

// statusClasses labels the HTTP status classes the request counters
// are split by.
var statusClasses = [...]string{"1xx", "2xx", "3xx", "4xx", "5xx"}

// endpointMetrics is one endpoint's counter set. Buckets store
// non-cumulative counts (the first bound the latency fits under);
// the exposition cumulates them, as the Prometheus format requires.
type endpointMetrics struct {
	requests [len(statusClasses)]atomic.Int64
	buckets  [len(latencyBuckets)]atomic.Int64
	count    atomic.Int64
	sumNanos atomic.Int64
}

// total sums the endpoint's requests across status classes.
func (em *endpointMetrics) total() int64 {
	var n int64
	for i := range em.requests {
		n += em.requests[i].Load()
	}
	return n
}

// httpMetrics is the registry's request-metrics state: one counter
// set per endpoint (the map is built once and only read afterwards)
// plus the in-flight gauge.
type httpMetrics struct {
	inFlight   atomic.Int64
	byEndpoint map[string]*endpointMetrics
}

func newHTTPMetrics() *httpMetrics {
	m := &httpMetrics{byEndpoint: make(map[string]*endpointMetrics, len(endpoints))}
	for _, ep := range endpoints {
		m.byEndpoint[ep] = &endpointMetrics{}
	}
	return m
}

// observe records one completed request.
func (m *httpMetrics) observe(ep string, status int, d time.Duration) {
	em := m.byEndpoint[ep]
	if em == nil {
		return
	}
	ci := status/100 - 1
	if ci < 0 || ci >= len(statusClasses) {
		ci = len(statusClasses) - 1
	}
	em.requests[ci].Add(1)
	em.count.Add(1)
	em.sumNanos.Add(int64(d))
	secs := d.Seconds()
	for i, b := range latencyBuckets {
		if secs <= b {
			em.buckets[i].Add(1)
			break
		}
	}
	// A latency above the last bound lands only in count (the +Inf
	// bucket the exposition derives from it).
}

// statusRecorder captures the status code and body size a handler
// wrote, defaulting to 200 when the handler never called WriteHeader.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(p)
	r.bytes += int64(n)
	return n, err
}

// instrument wraps one route's handler with the metrics layer and the
// optional access log. The endpoint label is fixed per route at
// registration, so no request parsing happens here.
func (reg *Registry) instrument(ep string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		reg.metrics.inFlight.Add(1)
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w}
		h(rec, req)
		d := time.Since(start)
		reg.metrics.inFlight.Add(-1)
		status := rec.status
		if status == 0 {
			status = http.StatusOK
		}
		reg.metrics.observe(ep, status, d)
		if reg.accessLog != nil {
			reg.accessLog.Info("request",
				"method", req.Method,
				"path", req.URL.Path,
				"endpoint", ep,
				"status", status,
				"bytes", rec.bytes,
				"duration_ms", float64(d)/float64(time.Millisecond),
			)
		}
	}
}

// WithAccessLog attaches a structured logger that records one line per
// served request (method, path, endpoint label, status, body size,
// duration).
func WithAccessLog(l *slog.Logger) Option {
	return func(r *Registry) { r.accessLog = l }
}

// handleMetrics serves GET /metrics: the Prometheus text exposition of
// the request metrics and the registry's run counters.
func (reg *Registry) handleMetrics(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	reg.writeMetrics(w)
}

// fmtBound renders a histogram bucket bound the way Prometheus
// clients conventionally do ("0.005", "2.5", "10").
func fmtBound(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// writeMetrics renders the exposition. Endpoints appear in the fixed
// order of the endpoints slice and status classes in ascending order,
// so the body is a pure function of the counter state.
func (reg *Registry) writeMetrics(w io.Writer) {
	m := reg.metrics

	fmt.Fprintln(w, "# HELP servet_http_requests_total Requests served, by endpoint and status class.")
	fmt.Fprintln(w, "# TYPE servet_http_requests_total counter")
	for _, ep := range endpoints {
		em := m.byEndpoint[ep]
		for ci, class := range statusClasses {
			if n := em.requests[ci].Load(); n > 0 {
				fmt.Fprintf(w, "servet_http_requests_total{endpoint=%q,code=%q} %d\n", ep, class, n)
			}
		}
	}

	fmt.Fprintln(w, "# HELP servet_http_request_duration_seconds Request latency, by endpoint.")
	fmt.Fprintln(w, "# TYPE servet_http_request_duration_seconds histogram")
	for _, ep := range endpoints {
		em := m.byEndpoint[ep]
		count := em.count.Load()
		if count == 0 {
			continue
		}
		var cum int64
		for i, b := range latencyBuckets {
			cum += em.buckets[i].Load()
			fmt.Fprintf(w, "servet_http_request_duration_seconds_bucket{endpoint=%q,le=%q} %d\n", ep, fmtBound(b), cum)
		}
		fmt.Fprintf(w, "servet_http_request_duration_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", ep, count)
		fmt.Fprintf(w, "servet_http_request_duration_seconds_sum{endpoint=%q} %g\n", ep, float64(em.sumNanos.Load())/float64(time.Second))
		fmt.Fprintf(w, "servet_http_request_duration_seconds_count{endpoint=%q} %d\n", ep, count)
	}

	fmt.Fprintln(w, "# HELP servet_http_in_flight_requests Requests currently being served.")
	fmt.Fprintln(w, "# TYPE servet_http_in_flight_requests gauge")
	fmt.Fprintf(w, "servet_http_in_flight_requests %d\n", m.inFlight.Load())

	fmt.Fprintln(w, "# HELP servet_run_sessions_total Engine sessions run for POST /v1/run and /v1/tune requests.")
	fmt.Fprintln(w, "# TYPE servet_run_sessions_total counter")
	fmt.Fprintf(w, "servet_run_sessions_total %d\n", reg.runSessions.Load())
	fmt.Fprintln(w, "# HELP servet_runs_coalesced_total Run requests that piggybacked on an identical in-flight run.")
	fmt.Fprintln(w, "# TYPE servet_runs_coalesced_total counter")
	fmt.Fprintf(w, "servet_runs_coalesced_total %d\n", reg.runsCoalesced.Load())
	fmt.Fprintln(w, "# HELP servet_probes_executed_total Probes the engine actually measured.")
	fmt.Fprintln(w, "# TYPE servet_probes_executed_total counter")
	fmt.Fprintf(w, "servet_probes_executed_total %d\n", reg.probesExecuted.Load())
	fmt.Fprintln(w, "# HELP servet_tune_requests_total Tune requests served.")
	fmt.Fprintln(w, "# TYPE servet_tune_requests_total counter")
	fmt.Fprintf(w, "servet_tune_requests_total %d\n", reg.tuneRequests.Load())
	fmt.Fprintln(w, "# HELP servet_tunes_coalesced_total Tune requests that piggybacked on an identical in-flight search.")
	fmt.Fprintln(w, "# TYPE servet_tunes_coalesced_total counter")
	fmt.Fprintf(w, "servet_tunes_coalesced_total %d\n", reg.tunesCoalesced.Load())
	fmt.Fprintln(w, "# HELP servet_tune_evaluations_total Objective evaluations the tune engine executed.")
	fmt.Fprintln(w, "# TYPE servet_tune_evaluations_total counter")
	fmt.Fprintf(w, "servet_tune_evaluations_total %d\n", reg.tuneEvaluations.Load())

	fmt.Fprintln(w, "# HELP servet_store_requests_total Per-fingerprint store reads, by outcome.")
	fmt.Fprintln(w, "# TYPE servet_store_requests_total counter")
	fmt.Fprintf(w, "servet_store_requests_total{result=\"hit\"} %d\n", reg.storeHits.Load())
	fmt.Fprintf(w, "servet_store_requests_total{result=\"miss\"} %d\n", reg.storeMisses.Load())
}
