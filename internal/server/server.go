// Package server implements the probe-registry server: an
// http.Handler that stores Servet reports keyed by machine
// fingerprint behind a report.Store, serves them (whole, listed,
// or per probe section) to autotuners across a cluster, and runs the
// probe engine on demand for fingerprints it has no fresh results
// for. Identical concurrent run requests coalesce into a single
// engine execution.
//
// The registry is the cluster-side half of the install-time parameter
// file the paper describes: one node measures, every node with the
// same hardware fingerprint reuses the results (clients connect
// through servet.RemoteCache or plain HTTP; the wire protocol lives
// in internal/regproto).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"

	"servet"
	"servet/internal/regproto"
	"servet/internal/report"
	"servet/internal/tune"
)

// maxRunNodes caps the node count of a run or tune request: the
// machine model grows with it and the communication sweep is
// quadratic in its cores, so an unbounded count is a cheap way to
// pin the engine. 64 nodes (1,024 FinisTerrae cores) is far above the
// 2 nodes the CLI defaults to.
const maxRunNodes = 64

// maxTuneBudget caps a tune request's evaluations: at tens of
// milliseconds each, an unbounded budget holds a worker for hours.
const maxTuneBudget = 1024

// Registry is the probe-registry server: an http.Handler over a
// report.Store of fingerprint-keyed reports plus a probe engine.
type Registry struct {
	store       *countedStore
	parallelism int
	baseCtx     context.Context
	mux         *http.ServeMux
	flight      flightGroup[*report.Report]
	tuneFlight  flightGroup[*tune.Result]

	// fpLocks serializes every store-entry read-modify-write per
	// fingerprint (on-demand runs and PUTs): a session run is
	// Lookup → measure → Store, and two concurrent writers that both
	// read the old entry would each store a report missing what the
	// other just measured. The singleflight group only covers
	// byte-identical run requests; this covers the rest.
	fpMu    sync.Mutex
	fpLocks map[string]*sync.Mutex

	runSessions    atomic.Int64
	runsCoalesced  atomic.Int64
	probesExecuted atomic.Int64

	tuneRequests    atomic.Int64
	tunesCoalesced  atomic.Int64
	tuneEvaluations atomic.Int64

	// metrics is the per-endpoint HTTP metrics layer (see metrics.go);
	// accessLog, when set, records one structured line per request.
	metrics   *httpMetrics
	accessLog *slog.Logger
}

// fingerprintLock returns the mutex serializing writes to one
// fingerprint's entry. Locks are never freed; the map is bounded by
// the number of distinct machine models the registry ever sees.
func (reg *Registry) fingerprintLock(fp string) *sync.Mutex {
	reg.fpMu.Lock()
	defer reg.fpMu.Unlock()
	if reg.fpLocks == nil {
		reg.fpLocks = make(map[string]*sync.Mutex)
	}
	m := reg.fpLocks[fp]
	if m == nil {
		m = &sync.Mutex{}
		reg.fpLocks[fp] = m
	}
	return m
}

// Option configures a Registry.
type Option func(*Registry)

// WithParallelism sets the worker count on-demand runs hand to their
// session (probe-level and intra-probe fan-out; reports are identical
// at any value).
func WithParallelism(n int) Option {
	return func(r *Registry) { r.parallelism = n }
}

// WithBaseContext sets the context on-demand probe runs execute
// under. Runs deliberately do not inherit the triggering request's
// context — coalesced waiters would be poisoned by the leader
// hanging up — so cancellation comes from this context instead:
// cancel it (e.g. on SIGINT) to abort in-flight engine runs during
// shutdown.
func WithBaseContext(ctx context.Context) Option {
	return func(r *Registry) { r.baseCtx = ctx }
}

// New builds a registry over the store (NewMemStore or NewDirStore).
func New(store report.Store, opts ...Option) *Registry {
	reg := &Registry{store: &countedStore{Store: store}, parallelism: 1, baseCtx: context.Background(), metrics: newHTTPMetrics()}
	for _, o := range opts {
		o(reg)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+regproto.ReportsPath, reg.instrument(epList, reg.handleList))
	mux.HandleFunc("GET "+regproto.ReportsPath+"/{fingerprint}", reg.instrument(epGet, reg.handleGetReport))
	mux.HandleFunc("PUT "+regproto.ReportsPath+"/{fingerprint}", reg.instrument(epPut, reg.handlePutReport))
	mux.HandleFunc("GET "+regproto.ReportsPath+"/{fingerprint}/probes/{probe}", reg.instrument(epProbe, reg.handleGetProbe))
	mux.HandleFunc("POST "+regproto.RunPath, reg.instrument(epRun, reg.handleRun))
	mux.HandleFunc("POST "+regproto.TunePath, reg.instrument(epTune, reg.handleTune))
	mux.HandleFunc("GET "+regproto.StatsPath, reg.instrument(epStats, reg.handleStats))
	mux.HandleFunc("GET "+regproto.HealthPath, reg.instrument(epHealth, func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	}))
	mux.HandleFunc("GET "+regproto.MetricsPath, reg.instrument(epMetrics, reg.handleMetrics))
	reg.mux = mux
	return reg
}

// ServeHTTP implements http.Handler.
func (reg *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	reg.mux.ServeHTTP(w, req)
}

// Stats returns the registry's run counters, store hit/miss counts,
// and per-endpoint request totals. The observability endpoints
// (stats, health, metrics) are excluded from the request map so that
// reading the stats never changes the next stats body.
func (reg *Registry) Stats() regproto.Stats {
	st := regproto.Stats{
		RunSessions:     reg.runSessions.Load(),
		RunsCoalesced:   reg.runsCoalesced.Load(),
		ProbesExecuted:  reg.probesExecuted.Load(),
		TuneRequests:    reg.tuneRequests.Load(),
		TunesCoalesced:  reg.tunesCoalesced.Load(),
		TuneEvaluations: reg.tuneEvaluations.Load(),
		StoreHits:       reg.store.hits.Load(),
		StoreMisses:     reg.store.misses.Load(),
	}
	for _, ep := range endpoints {
		if statsExcluded[ep] {
			continue
		}
		if n := reg.metrics.byEndpoint[ep].total(); n > 0 {
			if st.HTTPRequests == nil {
				st.HTTPRequests = make(map[string]int64)
			}
			st.HTTPRequests[ep] = n
		}
	}
	return st
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, e regproto.Error) {
	writeJSON(w, status, e)
}

// handleList serves GET /v1/reports: one Entry per stored report.
func (reg *Registry) handleList(w http.ResponseWriter, req *http.Request) {
	reports, err := reg.store.List()
	if err != nil {
		writeError(w, http.StatusInternalServerError, regproto.Error{Code: regproto.CodeInternal, Message: err.Error()})
		return
	}
	entries := make([]regproto.Entry, 0, len(reports))
	for _, r := range reports {
		e := regproto.Entry{Fingerprint: r.Fingerprint, Machine: r.Machine, Schema: r.Schema}
		for _, p := range r.Provenance {
			e.Probes = append(e.Probes, p.Probe)
		}
		entries = append(entries, e)
	}
	writeJSON(w, http.StatusOK, entries)
}

// handleGetReport serves GET /v1/reports/{fingerprint}: the full
// stored report, or 404. The body is the entry's canonical bytes
// indented — exactly what encoding the decoded report would write.
func (reg *Registry) handleGetReport(w http.ResponseWriter, req *http.Request) {
	fp := req.PathValue("fingerprint")
	data, err := reg.store.Get(fp)
	if err == nil {
		data, err = report.Indent(data)
	}
	if err != nil {
		status, e := storeErr(err, fp)
		writeError(w, status, e)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

// handlePutReport serves PUT /v1/reports/{fingerprint}: store a
// report a node measured itself. Malformed bodies are 400; a report
// whose schema the registry does not store, or whose fingerprint
// disagrees with the addressed one, is 409.
func (reg *Registry) handlePutReport(w http.ResponseWriter, req *http.Request) {
	fp := req.PathValue("fingerprint")
	var r report.Report
	if err := json.NewDecoder(http.MaxBytesReader(w, req.Body, regproto.MaxReportBytes)).Decode(&r); err != nil {
		writeError(w, http.StatusBadRequest, regproto.Error{
			Code: regproto.CodeBadRequest, Message: "malformed report body: " + err.Error(),
		})
		return
	}
	if r.Schema != report.CurrentSchema {
		writeError(w, http.StatusConflict, regproto.Error{
			Code:    regproto.CodeSchemaMismatch,
			Message: fmt.Sprintf("server: report schema v%d, this registry stores v%d", r.Schema, report.CurrentSchema),
			Schema:  r.Schema,
		})
		return
	}
	if r.Fingerprint == "" {
		writeError(w, http.StatusBadRequest, regproto.Error{
			Code: regproto.CodeBadRequest, Message: "report carries no fingerprint",
		})
		return
	}
	if r.Fingerprint != fp {
		writeError(w, http.StatusConflict, regproto.Error{
			Code:    regproto.CodeFingerprintMismatch,
			Message: fmt.Sprintf("report is for machine %s, request addressed %s", r.Fingerprint, fp),
			Have:    r.Fingerprint,
			Want:    fp,
		})
		return
	}
	// Serialize with on-demand runs on the same fingerprint so a PUT
	// landing mid-run is not reverted by the run's store.
	lock := reg.fingerprintLock(fp)
	lock.Lock()
	err := reg.store.Put(&r)
	lock.Unlock()
	if err != nil {
		writeError(w, http.StatusInternalServerError, regproto.Error{Code: regproto.CodeInternal, Message: err.Error()})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleGetProbe serves GET /v1/reports/{fingerprint}/probes/{probe}:
// one probe's provenance row plus the report section it produced.
// Unknown fingerprints and probes the stored report carries no
// provenance for are 404.
func (reg *Registry) handleGetProbe(w http.ResponseWriter, req *http.Request) {
	fp, probe := req.PathValue("fingerprint"), req.PathValue("probe")
	data, err := reg.store.Get(fp)
	var r *report.Report
	if err == nil {
		r, err = report.Decode(fp, data)
	}
	if err != nil {
		status, e := storeErr(err, fp)
		writeError(w, status, e)
		return
	}
	prov := r.ProvenanceFor(probe)
	if prov == nil {
		writeError(w, http.StatusNotFound, regproto.Error{
			Code:    regproto.CodeNotFound,
			Message: fmt.Sprintf("report %s carries no section for probe %q", fp, probe),
		})
		return
	}
	sec := regproto.ProbeSection{Fingerprint: fp, Probe: probe, Provenance: *prov}
	for i := range r.Timings {
		if r.Timings[i].Stage == probe {
			tm := r.Timings[i]
			sec.Timing = &tm
		}
	}
	// Map the built-in probes to their report sections. A probe
	// registered after this list (the pipeline is designed for
	// extension) falls through to a provenance-plus-timing-only
	// response — the documented ProbeSection contract — and its data
	// stays reachable through the full-report endpoint.
	switch probe {
	case "cache-size", "shared-caches":
		sec.Caches = r.Caches
	case "memory-overhead":
		sec.Memory = &r.Memory
	case "communication-costs":
		sec.Comm = &r.Comm
	case "tlb":
		sec.TLB = r.TLB
	}
	writeJSON(w, http.StatusOK, sec)
}

// normalizeRun rewrites a run request to its effective values before
// anything derives from it, so requests that differ only in
// spelled-out defaults ({"machine":"dempsey"} vs
// {...,"nodes":2,"seed":1}) build the same machine and the same
// coalescing key. It returns the resolved machine model.
func normalizeRun(rr *regproto.RunRequest) (*servet.Machine, error) {
	if rr.Nodes <= 0 {
		rr.Nodes = 2
	}
	if rr.Nodes > maxRunNodes {
		return nil, fmt.Errorf("nodes %d exceeds the limit of %d", rr.Nodes, maxRunNodes)
	}
	if rr.Seed == 0 {
		rr.Seed = 1 // the engine's default (core.withDefaults)
	}
	m, ok := servet.Models(rr.Nodes)[rr.Machine]
	if !ok {
		return nil, fmt.Errorf("unknown machine model %q", rr.Machine)
	}
	return m, nil
}

// handleRun serves POST /v1/run: produce a report for a machine
// model, measuring only probes the store has no fresh section for.
// Identical concurrent requests coalesce onto one engine run (the
// response header Servet-Run reports "coalesced" for the piggybacked
// ones); the stored entry is updated before anyone gets the report.
func (reg *Registry) handleRun(w http.ResponseWriter, req *http.Request) {
	var rr regproto.RunRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, req.Body, regproto.MaxReportBytes)).Decode(&rr); err != nil {
		writeError(w, http.StatusBadRequest, regproto.Error{
			Code: regproto.CodeBadRequest, Message: "malformed run request: " + err.Error(),
		})
		return
	}
	m, err := normalizeRun(&rr)
	if err != nil {
		writeError(w, http.StatusBadRequest, regproto.Error{Code: regproto.CodeBadRequest, Message: err.Error()})
		return
	}
	rep, shared, err := reg.resolveRun(m, rr)
	if err != nil {
		var unknown *servet.UnknownProbeError
		if errors.As(err, &unknown) {
			writeError(w, http.StatusBadRequest, regproto.Error{Code: regproto.CodeBadRequest, Message: err.Error()})
			return
		}
		writeError(w, http.StatusInternalServerError, regproto.Error{Code: regproto.CodeInternal, Message: err.Error()})
		return
	}
	if shared {
		reg.runsCoalesced.Add(1)
		w.Header().Set("Servet-Run", "coalesced")
	} else {
		w.Header().Set("Servet-Run", "executed")
	}
	writeJSON(w, http.StatusOK, rep)
}

// resolveRun produces the report a normalized run request asks for:
// coalesced with identical in-flight requests, stored sections
// reused, stale probes measured. Both POST /v1/run and POST /v1/tune
// resolve their reports here, so a herd of tunes on a cold
// fingerprint triggers exactly one engine run.
func (reg *Registry) resolveRun(m *servet.Machine, rr regproto.RunRequest) (rep *report.Report, shared bool, err error) {
	fp := m.Fingerprint()
	// The coalescing key is the fingerprint plus the normalized
	// request: two requests coalesce only when they would run the same
	// probes under the same options (the canonical JSON of the
	// fixed-order struct is a cheap digest of that).
	keyBytes, err := json.Marshal(rr)
	if err != nil {
		return nil, false, err
	}
	return reg.flight.do(fp+"|"+string(keyBytes), func() (*report.Report, error) {
		// Serialize against other runs and PUTs on this fingerprint:
		// the waiter's Lookup then sees the finished entry, and the
		// engine (core.Suite.Run) carries every section both runs
		// produced, instead of last-write-wins dropping one run's
		// measurements.
		lock := reg.fingerprintLock(fp)
		lock.Lock()
		defer lock.Unlock()
		opts := []servet.Option{
			servet.WithCache(report.Cache{Entries: reg.store}),
			servet.WithParallelism(reg.parallelism),
			servet.WithSeed(rr.Seed),
			servet.WithNoise(rr.Noise),
		}
		if rr.Quick {
			opts = append(opts, servet.WithQuick())
		}
		ses, err := servet.NewSession(m, opts...)
		if err != nil {
			return nil, err
		}
		// The run executes under the registry's base context, not the
		// request's: a leader hanging up must not poison the waiters
		// that coalesced onto its run.
		out, err := ses.Run(reg.baseCtx, rr.Probes...)
		if err != nil {
			return nil, err
		}
		reg.runSessions.Add(1)
		for _, p := range out.Provenance {
			if p.Status == report.ProvenanceRan {
				reg.probesExecuted.Add(1)
			}
		}
		return out, nil
	})
}

// handleTune serves POST /v1/tune: resolve the request's report (as a
// POST run would — stored sections reused, stale probes measured
// first), then search the parameter space for the configuration
// minimizing the objective. The search is deterministic, so its
// result is as cacheable as the report itself; identical concurrent
// requests coalesce onto one search (Servet-Tune: coalesced) and even
// distinct tunes over the same cold report coalesce the underlying
// engine run.
func (reg *Registry) handleTune(w http.ResponseWriter, req *http.Request) {
	reg.tuneRequests.Add(1)
	var tr regproto.TuneRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, req.Body, regproto.MaxReportBytes)).Decode(&tr); err != nil {
		writeError(w, http.StatusBadRequest, regproto.Error{
			Code: regproto.CodeBadRequest, Message: "malformed tune request: " + err.Error(),
		})
		return
	}
	m, err := normalizeRun(&tr.Run)
	if err != nil {
		writeError(w, http.StatusBadRequest, regproto.Error{Code: regproto.CodeBadRequest, Message: err.Error()})
		return
	}
	// Normalize the tune side too, so spelled-out defaults coalesce
	// with omitted ones ("" and "auto" are the same strategy; the
	// engine's own defaults fill seed and budget).
	if tr.Strategy == "" {
		tr.Strategy = tune.StrategyAuto
	}
	if tr.Seed == 0 {
		tr.Seed = tune.DefaultSeed
	}
	if tr.Budget <= 0 {
		tr.Budget = tune.DefaultBudget
	}
	if tr.Budget > maxTuneBudget {
		writeError(w, http.StatusBadRequest, regproto.Error{
			Code:    regproto.CodeBadRequest,
			Message: fmt.Sprintf("budget %d exceeds the limit of %d", tr.Budget, maxTuneBudget),
		})
		return
	}
	// Validate everything cheap before touching the engines: bad
	// spaces, strategies and objectives are the client's fault and
	// must not produce (or wait on) a probe run.
	if err := tr.Space.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, regproto.Error{Code: regproto.CodeBadRequest, Message: err.Error()})
		return
	}
	if _, err := tune.NewStrategy(tr.Strategy); err != nil {
		writeError(w, http.StatusBadRequest, regproto.Error{Code: regproto.CodeBadRequest, Message: err.Error()})
		return
	}
	obj, err := tune.NewObjective(tr.Objective)
	if err != nil {
		writeError(w, http.StatusBadRequest, regproto.Error{Code: regproto.CodeBadRequest, Message: err.Error()})
		return
	}

	keyBytes, err := json.Marshal(tr)
	if err != nil {
		writeError(w, http.StatusInternalServerError, regproto.Error{Code: regproto.CodeInternal, Message: err.Error()})
		return
	}
	res, shared, err := reg.tuneFlight.do("tune|"+m.Fingerprint()+"|"+string(keyBytes), func() (*tune.Result, error) {
		rep, _, err := reg.resolveRun(m, tr.Run)
		if err != nil {
			return nil, err
		}
		out, err := tune.Tune(reg.baseCtx, rep, tr.Space, obj, tune.Options{
			Strategy:    tr.Strategy,
			Seed:        tr.Seed,
			Budget:      tr.Budget,
			Parallelism: reg.parallelism,
		})
		if err != nil {
			return nil, err
		}
		reg.tuneEvaluations.Add(int64(out.Evaluations))
		return out, nil
	})
	if shared {
		reg.tunesCoalesced.Add(1)
	}
	if err != nil {
		var unknown *servet.UnknownProbeError
		if errors.As(err, &unknown) {
			writeError(w, http.StatusBadRequest, regproto.Error{Code: regproto.CodeBadRequest, Message: err.Error()})
			return
		}
		writeError(w, http.StatusInternalServerError, regproto.Error{Code: regproto.CodeInternal, Message: err.Error()})
		return
	}
	if shared {
		w.Header().Set("Servet-Tune", "coalesced")
	} else {
		w.Header().Set("Servet-Tune", "executed")
	}
	writeJSON(w, http.StatusOK, res)
}

// handleStats serves GET /v1/stats.
func (reg *Registry) handleStats(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, http.StatusOK, reg.Stats())
}

// storeErr maps a report.Store Get failure to its HTTP shape.
func storeErr(err error, fp string) (int, regproto.Error) {
	if errors.Is(err, report.ErrNotFound) {
		return http.StatusNotFound, regproto.Error{
			Code:    regproto.CodeNotFound,
			Message: fmt.Sprintf("no report for fingerprint %s", fp),
		}
	}
	return http.StatusInternalServerError, regproto.Error{Code: regproto.CodeInternal, Message: err.Error()}
}
