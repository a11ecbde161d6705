// Package regproto defines the wire protocol of the probe-registry
// server: URL paths, request and response bodies, and the structured
// error envelope. It is the one vocabulary both sides speak — the
// server handlers in internal/server and the client-side RemoteCache
// in the root package — which cannot import each other (the server
// runs sessions from the root package, so the root package importing
// the server would be a cycle).
package regproto

import (
	"servet/internal/report"
	"servet/internal/tune"
)

// URL paths of the registry API.
const (
	// ReportsPath lists every stored report (GET) and roots the
	// per-fingerprint endpoints below.
	ReportsPath = "/v1/reports"
	// RunPath executes an on-demand probe run (POST).
	RunPath = "/v1/run"
	// TunePath executes a search-driven tune against a fingerprint's
	// report (POST), resolving the report through the run machinery
	// first.
	TunePath = "/v1/tune"
	// StatsPath reports run counters (GET).
	StatsPath = "/v1/stats"
	// HealthPath answers liveness checks (GET).
	HealthPath = "/healthz"
	// MetricsPath serves the same counters (plus per-endpoint request
	// metrics) in Prometheus text exposition format (GET).
	MetricsPath = "/metrics"
)

// MaxReportBytes bounds every body that crosses the registry wire, in
// both directions: the server caps PUT and POST bodies at it, and
// clients read at most this much of a response, so an oversized body
// is an error (or a cache miss), never an unbounded read. The largest
// real report (FinisTerrae, full bandwidth sweeps) is well under a
// megabyte.
const MaxReportBytes = 32 << 20

// ReportPath returns the endpoint of one fingerprint's report.
func ReportPath(fingerprint string) string {
	return ReportsPath + "/" + fingerprint
}

// ProbePath returns the endpoint of one probe's section within a
// fingerprint's report.
func ProbePath(fingerprint, probe string) string {
	return ReportPath(fingerprint) + "/probes/" + probe
}

// Machine-readable error codes carried by the Error envelope.
const (
	// CodeNotFound: no report stored under the fingerprint (or no such
	// probe section within it).
	CodeNotFound = "not-found"
	// CodeBadRequest: malformed body, unknown machine model or probe.
	CodeBadRequest = "bad-request"
	// CodeSchemaMismatch: the report's schema version is not the one
	// this server stores.
	CodeSchemaMismatch = "schema-mismatch"
	// CodeFingerprintMismatch: the report's fingerprint does not match
	// the fingerprint the request addressed.
	CodeFingerprintMismatch = "fingerprint-mismatch"
	// CodeInternal: the server failed to act on a well-formed request.
	CodeInternal = "internal"
)

// Error is the JSON error envelope of every non-2xx response.
type Error struct {
	// Code is one of the Code constants above.
	Code string `json:"code"`
	// Message is the human-readable cause.
	Message string `json:"message"`
	// Have and Want carry the two sides of a mismatch (the stored or
	// body fingerprint vs the addressed one), empty otherwise.
	Have string `json:"have,omitempty"`
	Want string `json:"want,omitempty"`
	// Schema is the offending schema version of a schema-mismatch.
	Schema int `json:"schema,omitempty"`
}

// Entry is one row of the report listing.
type Entry struct {
	// Fingerprint keys the report.
	Fingerprint string `json:"fingerprint"`
	// Machine is the stored report's model name.
	Machine string `json:"machine"`
	// Schema is the stored report's schema version.
	Schema int `json:"schema"`
	// Probes names the probes the report carries provenance for, in
	// the report's order.
	Probes []string `json:"probes,omitempty"`
}

// RunRequest asks the server to produce a report for a machine model,
// executing only probes whose stored sections are stale. Identical
// concurrent requests coalesce into one engine run.
type RunRequest struct {
	// Machine names a predefined model (servet.Models).
	Machine string `json:"machine"`
	// Nodes sizes multi-node models (default 2, as cmd/servet).
	Nodes int `json:"nodes,omitempty"`
	// Probes selects a probe subset (empty: the paper's four-stage
	// suite).
	Probes []string `json:"probes,omitempty"`
	// Seed and Noise mirror the session options of the same names.
	Seed  int64   `json:"seed,omitempty"`
	Noise float64 `json:"noise,omitempty"`
	// Quick trims the slowest sweeps, as servet.WithQuick.
	Quick bool `json:"quick,omitempty"`
}

// ProbeSection is the response of the per-probe endpoint: one probe's
// provenance row plus the report section it produced. Provenance and
// Timing are universal; the section fields below cover the built-in
// probes, so an extension probe the server predates answers with
// provenance and timing only (fetch the full report for its data).
type ProbeSection struct {
	// Fingerprint and Probe identify the section.
	Fingerprint string `json:"fingerprint"`
	Probe       string `json:"probe"`
	// Provenance is the probe's provenance row from the stored report.
	Provenance report.ProbeProvenance `json:"provenance"`
	// Timing is the probe's Table I row, if the report carries one.
	Timing *report.StageTiming `json:"timing,omitempty"`
	// Caches holds the cache-size and shared-caches sections.
	Caches []report.CacheResult `json:"caches,omitempty"`
	// Memory holds the memory-overhead section.
	Memory *report.MemoryResult `json:"memory,omitempty"`
	// Comm holds the communication-costs section.
	Comm *report.CommResult `json:"comm,omitempty"`
	// TLB holds the tlb section (nil also when the probe ran and
	// detected no TLB; Provenance says whether it ran).
	TLB *report.TLBResult `json:"tlb,omitempty"`
}

// TuneRequest asks the server to search a parameter space for the
// configuration minimizing an objective against a machine's report.
// The report is resolved through the same machinery as a POST run
// (stored sections reused, stale probes measured first), then the
// tune engine runs server-side. Identical concurrent requests
// coalesce into one search; the result is deterministic, so every
// waiter gets byte-identical bytes.
type TuneRequest struct {
	// Run identifies the machine and the probe run that produces (or
	// restores) the report to tune against.
	Run RunRequest `json:"run"`
	// Space is the parameter space to search.
	Space tune.Space `json:"space"`
	// Objective names a registered objective plus its parameters.
	Objective tune.ObjectiveSpec `json:"objective"`
	// Strategy names the search strategy (empty: auto).
	Strategy string `json:"strategy,omitempty"`
	// Seed drives the search's stochastic decisions (0: the engine
	// default). Distinct from Run.Seed, which drives the probes.
	Seed int64 `json:"seed,omitempty"`
	// Budget caps the number of objective evaluations (0: the engine
	// default).
	Budget int `json:"budget,omitempty"`
}

// Stats are the registry's run counters.
type Stats struct {
	// RunSessions counts engine sessions run for POST /v1/run and
	// POST /v1/tune requests: a tune resolves its report as a run
	// does (coalesced requests share one session).
	RunSessions int64 `json:"run_sessions"`
	// RunsCoalesced counts POST-run requests that piggybacked on an
	// in-flight identical run instead of starting their own.
	RunsCoalesced int64 `json:"runs_coalesced"`
	// ProbesExecuted counts probes the engine actually measured (a
	// fully cached run executes none).
	ProbesExecuted int64 `json:"probes_executed"`
	// TuneRequests counts POST-tune requests served.
	TuneRequests int64 `json:"tune_requests"`
	// TunesCoalesced counts POST-tune requests that piggybacked on an
	// identical in-flight search instead of starting their own.
	TunesCoalesced int64 `json:"tunes_coalesced"`
	// TuneEvaluations counts objective evaluations the tune engine
	// executed (coalesced requests share one search's evaluations).
	TuneEvaluations int64 `json:"tune_evaluations"`
	// StoreHits and StoreMisses count per-fingerprint store reads that
	// found (or did not find) an entry — report GETs, probe-section
	// GETs, and the cache lookups of on-demand runs.
	StoreHits   int64 `json:"store_hits"`
	StoreMisses int64 `json:"store_misses"`
	// HTTPRequests counts served requests per endpoint label. The
	// observability endpoints (stats, health, metrics) are excluded so
	// that reading the stats does not change the next stats body:
	// consecutive GET /v1/stats responses stay byte-identical.
	HTTPRequests map[string]int64 `json:"http_requests,omitempty"`
}
