package servet

import (
	"context"
	"fmt"
	"time"

	"servet/internal/core"
	"servet/internal/memsys"
	"servet/internal/obs"
	"servet/internal/report"
)

// Option configures a Session (and Sweep). Options are applied in
// order, so later ones win.
type Option func(*sessionConfig)

type sessionConfig struct {
	opt       core.Options
	cache     Cache
	cachePath string
	cacheDir  string
	cacheURL  string
}

// setCache records one cache choice, clearing the others: the cache
// options below are mutually exclusive and the last one applied wins.
func (c *sessionConfig) setCache(cache Cache, path, dir, url string) {
	c.cache, c.cachePath, c.cacheDir, c.cacheURL = cache, path, dir, url
}

func (c *sessionConfig) apply(opts []Option) {
	for _, o := range opts {
		o(c)
	}
}

// WithOptions replaces the whole suite-tuning struct. It composes
// with the targeted options below: apply it first, then override
// individual fields.
func WithOptions(opt Options) Option {
	return func(c *sessionConfig) { c.opt = opt }
}

// WithSeed sets the seed driving page placement and measurement
// noise (0 means the default, 1).
func WithSeed(seed int64) Option {
	return func(c *sessionConfig) { c.opt.Seed = seed }
}

// WithNoise adds relative Gaussian measurement noise (e.g. 0.02) to
// exercise the clustering tolerances.
func WithNoise(sigma float64) Option {
	return func(c *sessionConfig) { c.opt.NoiseSigma = sigma }
}

// WithParallelism bounds how many tasks run concurrently: the probes
// of one dependency wave, the sharded measurements inside the
// communication-costs probe and CalibrateCores, and how many machines
// Sweep probes at once. Reports are byte-identical at any
// parallelism; only wall times change.
func WithParallelism(n int) Option {
	return func(c *sessionConfig) { c.opt.Parallelism = n }
}

// WithQuick trims the slowest sweeps (fewer ping-pong repetitions and
// allocations, three bandwidth points) for demos and smoke tests.
func WithQuick() Option {
	return func(c *sessionConfig) {
		c.opt.CommReps = 2
		c.opt.Allocations = 2
		c.opt.BWSizes = []int64{4 << 10, 64 << 10, 1 << 20}
	}
}

// WithCache attaches a probe-result cache: Session.Run consults it
// before executing probes and stores the merged report back into it.
func WithCache(cache Cache) Option {
	return func(c *sessionConfig) { c.setCache(cache, "", "", "") }
}

// WithCacheFile attaches a FileCache on the install-time JSON report
// at path: the file the suite writes once at installation becomes an
// incremental cache, and re-runs execute only probes whose options
// changed (or whose dependencies did).
func WithCacheFile(path string) Option {
	return func(c *sessionConfig) { c.setCache(nil, path, "", "") }
}

// WithCacheDir attaches a DirCache on a directory of per-fingerprint
// report files — the multi-entry counterpart of WithCacheFile, safe
// to share across the machines of a heterogeneous Sweep.
func WithCacheDir(path string) Option {
	return func(c *sessionConfig) { c.setCache(nil, "", path, "") }
}

// WithRemoteCache attaches a RemoteCache talking to the probe
// registry at url (a cmd/servet-server instance): the session
// restores probes from the cluster-shared registry and publishes its
// merged report back, so nodes with the same hardware fingerprint
// measure once. A malformed url fails NewSession; an unreachable
// registry degrades to measuring locally.
func WithRemoteCache(url string) Option {
	return func(c *sessionConfig) { c.setCache(nil, "", "", url) }
}

// Session is the stateful entry point of the suite: it owns the
// validated machine, the effective options, the simulated-hardware
// instances the direct probes use, and an optional probe-result
// cache. A Session is safe for concurrent use of its Run method (the
// probes themselves never mutate the machine), and the
// single-benchmark calls (DetectCaches, CalibrateCores, DetectTLB)
// each build fresh simulator state, so concurrent calls are
// independent.
type Session struct {
	suite       *core.Suite
	cache       Cache
	fingerprint string
}

// NewSession validates the machine and prepares a session. With no
// options the session runs the paper's defaults.
func NewSession(m *Machine, opts ...Option) (*Session, error) {
	var cfg sessionConfig
	cfg.apply(opts)
	suite, err := core.NewSuite(m, cfg.opt)
	if err != nil {
		return nil, err
	}
	cache := cfg.cache
	switch {
	case cfg.cachePath != "":
		cache = NewFileCache(cfg.cachePath)
	case cfg.cacheDir != "":
		cache = NewDirCache(cfg.cacheDir)
	case cfg.cacheURL != "":
		rc, err := NewRemoteCache(cfg.cacheURL)
		if err != nil {
			return nil, err
		}
		cache = rc
	}
	return &Session{
		suite:       suite,
		cache:       cache,
		fingerprint: m.Fingerprint(),
	}, nil
}

// Machine returns the machine under test.
func (s *Session) Machine() *Machine { return s.suite.Machine() }

// Fingerprint returns the stable identity hash of the machine model —
// the key the session's cache entries live under.
func (s *Session) Fingerprint() string { return s.fingerprint }

// Options returns the effective (default-filled) options.
func (s *Session) Options() Options { return s.suite.Options() }

// Run executes the named probes plus their transitive dependencies
// (no names means the paper's four-benchmark suite) and returns the
// merged report, stamped with the schema version, the machine
// fingerprint and per-probe provenance.
//
// When the session has a cache, the fingerprint's entry goes to
// core.Suite.Run, which decides what to reuse: probes whose cached
// section is still fresh — same options digest, and every dependency
// fresh too — are restored instead of executed; only stale probes
// (and their dependents) run, through the usual scheduler. The
// merged report is identical to a fresh run's, with provenance rows
// saying which sections were measured now ("ran") and which were
// reused ("cached", keeping their original measurement timestamp).
// The report is stored back into the cache before returning.
//
// A cached session's report accumulates: sections of probes outside
// the requested set are carried over from the cache entry when they
// are still consistent with this run, so a subset re-run narrows
// neither the report nor the install-time file.
func (s *Session) Run(ctx context.Context, probes ...string) (*Report, error) {
	// The run records into the context's tracer (nil when untraced):
	// one "session" span over the whole run plus cache spans and
	// counters. None of it feeds back into the report.
	tr := obs.FromContext(ctx)
	sp := tr.Start("session", "run")
	defer sp.End()

	var cached *Report
	if s.cache != nil {
		lk := tr.Start("session", "cache-lookup")
		r, ok := s.cache.Lookup(s.fingerprint)
		lk.End()
		if ok {
			cached = r
			tr.Count(obs.CounterCacheHit, 1)
		} else {
			tr.Count(obs.CounterCacheMiss, 1)
		}
	}

	// The engine decides, probe by probe, what to restore, carry and
	// run; the session only stamps the report's identity and the
	// measurement time of the sections measured now.
	rep, err := s.suite.Run(ctx, cached, probes...)
	if err != nil {
		return nil, err
	}
	rep.Schema = report.CurrentSchema
	rep.Fingerprint = s.fingerprint
	rep.StampRan(time.Now().UTC()) //servet:wallclock — provenance timestamp, never a measurement input

	if s.cache != nil {
		st := tr.Start("session", "cache-store")
		err := s.cache.Store(s.fingerprint, rep)
		st.End()
		if err != nil {
			return nil, fmt.Errorf("servet: cache store: %w", err)
		}
	}
	return rep, nil
}

// DetectCaches runs only the cache-size benchmark on core 0
// (mcalibrator plus the Fig. 4 detection driver, with adaptive window
// refinement) and returns the detected levels along with the raw
// calibration curve. Cancelling the context aborts the measurement.
func (s *Session) DetectCaches(ctx context.Context) ([]DetectedCache, Calibration, error) {
	return core.DetectCaches(ctx, s.Machine(), 0, s.Options())
}

// CalibrateCores runs the Fig. 1 calibration loop on each of the
// given node-local cores (no cores means every core of a node),
// fanned out over the session's parallelism. Every core calibrates
// against its own fresh memory-system instance, so the calibrations
// are identical to sequential per-core calibrations regardless of
// parallelism. Results come back in the order the cores were given.
func (s *Session) CalibrateCores(ctx context.Context, cores ...int) ([]Calibration, error) {
	return s.suite.CalibrateCores(ctx, cores...)
}

// DetectTLB probes the machine's TLB on core 0 (an extension beyond
// the paper's suite, in the Saavedra & Smith lineage of mcalibrator):
// it returns the detected entry count and miss penalty, with ok=false
// when the machine shows no translation-miss transition. Cancelling
// the context aborts the probe between page-count steps.
func (s *Session) DetectTLB(ctx context.Context) (DetectedTLB, bool, error) {
	return core.DetectTLB(ctx, s.Machine(), 0, s.Options())
}

// MemorySimulator builds the functional memory-system model of one
// node under the session's seed, for evaluating access patterns (e.g.
// tiled vs naive traversals).
func (s *Session) MemorySimulator() *MemorySimulator {
	in := memsys.NewInstance(s.Machine(), s.Options().Seed)
	return &MemorySimulator{in: in, sp: in.NewSpace()}
}

// RunApp executes a message-passing application on the session's
// simulated cluster: nranks processes placed on the given global
// cores (nil = rank r on core r) run body concurrently in virtual
// time, returning the simulated makespan.
func (s *Session) RunApp(nranks int, placement []int, body func(*Rank)) (time.Duration, error) {
	return RunApp(s.Machine(), nranks, placement, body)
}
