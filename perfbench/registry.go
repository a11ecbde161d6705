package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"sync"
	"sync/atomic"
	"time"

	"servet"
	"servet/internal/obs"
	"servet/internal/regproto"
	"servet/internal/server"
)

// mixBlocks is the length of the generated mix; the closed loop
// replays it from the start if it runs out.
const mixBlocks = 1 << 11

// runRequest is the registry run of one fleet model, under the options
// the fleet was characterized with.
func runRequest(model string, seed int64, probes []string) regproto.RunRequest {
	return regproto.RunRequest{Machine: model, Nodes: fleetNodes, Probes: probes, Seed: seed, Quick: true}
}

// tuneRequest is the mix's model-objective tune against one model.
func tuneRequest(model string, seed int64, probes []string) regproto.TuneRequest {
	return regproto.TuneRequest{
		Run:       runRequest(model, seed, probes),
		Space:     servet.TuneSpace{Axes: []servet.TuneAxis{servet.IntRangeAxis("batch", 1, 256, 1)}},
		Objective: servet.ObjectiveSpec{Name: servet.ObjectiveAggregationModel, Params: json.RawMessage(`{"bytes":1024,"messages":256}`)},
		Strategy:  "random",
		Seed:      seed,
		Budget:    64,
	}
}

// localTune runs a tune request in process, as the registry should.
func localTune(ctx context.Context, rep *servet.Report, tr regproto.TuneRequest) ([]byte, error) {
	obj, err := servet.NewObjective(tr.Objective)
	if err != nil {
		return nil, err
	}
	res, err := servet.Tune(ctx, rep, tr.Space, obj, servet.TuneStrategy(tr.Strategy),
		servet.TuneSeed(tr.Seed), servet.TuneBudget(tr.Budget), servet.TuneParallelism(parallelism))
	if err != nil {
		return nil, err
	}
	return zeroedTune(res)
}

// zeroedTune is a tune result's JSON without its wall-clock provenance.
func zeroedTune(res *servet.TuneResult) ([]byte, error) {
	res.Provenance = servet.TuneResult{}.Provenance
	return json.Marshal(res)
}

// regClient is one load-generator connection: an HTTP client whose
// transport keeps exactly one keep-alive connection, and a
// RemoteCache over it for node boots.
type regClient struct {
	transport *http.Transport
	http      *http.Client
	cache     *servet.RemoteCache
}

// tracingTransport attaches a client trace to every request, so new
// connections are counted whoever builds the request.
type tracingTransport struct {
	base  http.RoundTripper
	trace *httptrace.ClientTrace
}

func (t tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	return t.base.RoundTrip(req.WithContext(httptrace.WithClientTrace(req.Context(), t.trace)))
}

// registryEnv is a seeded registry with its two load-generator
// connections and the responses it must give.
type registryEnv struct {
	reg      *server.Registry
	srv      *httptest.Server
	clients  [2]*regClient
	newConns atomic.Int64
	seed     int64

	fps      []string
	reps     []*servet.Report
	report   [][]byte   // per model: the GET body
	compact  [][]byte   // per model: the report as json.Marshal writes it
	sections [][][]byte // per model and probe: the section GET body
	tune     [][]byte   // per model: the tune result, provenance zeroed
}

func (e *registryEnv) close() {
	for _, c := range e.clients {
		if c != nil {
			c.transport.CloseIdleConnections()
		}
	}
	e.srv.Close()
}

// fetch sends one request on connection w and returns the body,
// failing unless the status is want.
func (e *registryEnv) fetch(ctx context.Context, w int, method, path string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, e.srv.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := e.clients[w].http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %.200s", method, path, resp.StatusCode, want, got)
	}
	return got, nil
}

// setUpRegistry starts a registry, seeds it with one cold run per
// fleet model and warms up every request class on both connections,
// recording the responses the timed mix must reproduce.
func setUpRegistry(ctx context.Context, seed int64) (*registryEnv, error) {
	e := &registryEnv{seed: seed}
	e.reg = server.New(server.NewMemStore(), server.WithParallelism(parallelism))
	e.srv = httptest.NewServer(e.reg)
	trace := &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) {
		if !info.Reused {
			e.newConns.Add(1)
		}
	}}
	for w := range e.clients {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		hc := &http.Client{Transport: tracingTransport{tr, trace}, Timeout: time.Minute}
		rc, err := servet.NewRemoteCache(e.srv.URL, servet.WithHTTPClient(hc))
		if err != nil {
			e.close()
			return nil, err
		}
		e.clients[w] = &regClient{transport: tr, http: hc, cache: rc}
	}
	if err := e.seedFleet(ctx); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *registryEnv) seedFleet(ctx context.Context) error {
	n := len(fleet)
	e.fps = make([]string, n)
	e.reps = make([]*servet.Report, n)
	e.report, e.compact, e.tune = make([][]byte, n), make([][]byte, n), make([][]byte, n)
	e.sections = make([][][]byte, n)
	for m, name := range fleet {
		e.fps[m] = fleetMachine(name).Fingerprint()
		body, _ := json.Marshal(runRequest(name, e.seed, nil))
		if _, err := e.fetch(ctx, 0, http.MethodPost, regproto.RunPath, body, http.StatusOK); err != nil {
			return fmt.Errorf("cold run: %w", err)
		}
	}
	// A boot stores the report back with every section restored; after
	// it the stored report is a fixed point of boots, warm runs and
	// PUTs of its own bytes.
	for m := range fleet {
		if err := e.boot(ctx, m%2, m); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		body, err := e.fetch(ctx, 0, http.MethodGet, regproto.ReportPath(e.fps[m]), nil, http.StatusOK)
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		e.report[m] = body
		var rep servet.Report
		if err := json.Unmarshal(body, &rep); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		e.reps[m] = &rep
		if e.compact[m], err = json.Marshal(&rep); err != nil {
			return err
		}
		if e.tune[m], err = localTune(ctx, &rep, tuneRequest(fleet[m], e.seed, nil)); err != nil {
			return fmt.Errorf("local tune: %w", err)
		}
		for _, probe := range defaultProbes {
			sec, err := e.fetch(ctx, 1, http.MethodGet, regproto.ProbePath(e.fps[m], probe), nil, http.StatusOK)
			if err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
			e.sections[m] = append(e.sections[m], sec)
		}
	}
	// The first request of every class on every connection, checked.
	for w := range e.clients {
		for m := range fleet {
			for c := range numClasses {
				if err := e.do(ctx, w, mixOp{class: c, model: m}); err != nil {
					return fmt.Errorf("warm-up %s: %w", classNames[c], err)
				}
			}
		}
	}
	return nil
}

// boot starts a node session through the registry on connection w and
// checks that it restored every probe and got the stored report.
func (e *registryEnv) boot(ctx context.Context, w, m int) error {
	s, err := servet.NewSession(fleetMachine(fleet[m]), servet.WithCache(e.clients[w].cache),
		servet.WithQuick(), servet.WithSeed(e.seed))
	if err != nil {
		return err
	}
	rep, err := s.Run(ctx)
	if err != nil {
		return fmt.Errorf("boot %s: %w", fleet[m], err)
	}
	for _, p := range rep.Provenance {
		if p.Status != servet.ProvenanceCached {
			return fmt.Errorf("boot %s: probe %s %s, want cached", fleet[m], p.Probe, p.Status)
		}
	}
	if e.compact[m] == nil {
		return nil
	}
	got, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, e.compact[m]) {
		return fmt.Errorf("boot %s: report differs from the stored one", fleet[m])
	}
	return nil
}

// do sends one request of the mix on connection w and checks the
// response.
func (e *registryEnv) do(ctx context.Context, w int, op mixOp) error {
	m, fp := op.model, e.fps[op.model]
	expect := func(got, want []byte, what string) error {
		if !bytes.Equal(got, want) {
			return fmt.Errorf("%s %s: response differs from the stored report", what, fleet[m])
		}
		return nil
	}
	switch op.class {
	case classGet:
		got, err := e.fetch(ctx, w, http.MethodGet, regproto.ReportPath(fp), nil, http.StatusOK)
		if err != nil {
			return err
		}
		return expect(got, e.report[m], "GET")
	case classSection:
		got, err := e.fetch(ctx, w, http.MethodGet, regproto.ProbePath(fp, defaultProbes[op.probe]), nil, http.StatusOK)
		if err != nil {
			return err
		}
		return expect(got, e.sections[m][op.probe], "section")
	case classPut:
		_, err := e.fetch(ctx, w, http.MethodPut, regproto.ReportPath(fp), e.report[m], http.StatusNoContent)
		return err
	case classRun:
		body, _ := json.Marshal(runRequest(fleet[m], e.seed, nil))
		got, err := e.fetch(ctx, w, http.MethodPost, regproto.RunPath, body, http.StatusOK)
		if err != nil {
			return err
		}
		return expect(got, e.report[m], "run")
	case classTune:
		body, _ := json.Marshal(tuneRequest(fleet[m], e.seed, nil))
		got, err := e.fetch(ctx, w, http.MethodPost, regproto.TunePath, body, http.StatusOK)
		if err != nil {
			return err
		}
		var res servet.TuneResult
		if err := json.Unmarshal(got, &res); err != nil {
			return fmt.Errorf("tune %s: %w", fleet[m], err)
		}
		if got, err = zeroedTune(&res); err != nil {
			return err
		}
		if !bytes.Equal(got, e.tune[m]) {
			return fmt.Errorf("tune %s: result differs from a local servet.Tune", fleet[m])
		}
		return nil
	case classBoot:
		return e.boot(ctx, w, m)
	}
	return fmt.Errorf("unknown request class %d", op.class)
}

// rendezvous lets the two connections start a pair round together.
type rendezvous struct {
	mu      sync.Mutex
	waiting map[int]chan struct{}
}

// meet blocks until the other connection reaches the same round.
func (r *rendezvous) meet(round int) {
	r.mu.Lock()
	if ch, ok := r.waiting[round]; ok {
		delete(r.waiting, round)
		r.mu.Unlock()
		close(ch)
		return
	}
	ch := make(chan struct{})
	r.waiting[round] = ch
	r.mu.Unlock()
	<-ch
}

// mixResult is what the closed loop measured.
type mixResult struct {
	// blocks and blocksCPU are the host and process CPU time of every
	// block.
	blocks, blocksCPU []time.Duration
	latency           [numClasses][]time.Duration
	attempted, failed int
	errs              []error
}

// runMix drives the closed loop block by block until d has passed:
// both connections start a block together, connection w issues op[w]
// of each round in turn, the two meet at pair rounds, and the block
// ends when both are done. Failed requests are counted and the loop
// goes on, so both connections always reach every pair round.
func (e *registryEnv) runMix(ctx context.Context, mix [][]round, d time.Duration) *mixResult {
	out := &mixResult{}
	var results [2]mixResult
	deadline := time.Now().Add(d)
	for b := 0; time.Now().Before(deadline); b++ {
		block := mix[b%len(mix)]
		rv := &rendezvous{waiting: map[int]chan struct{}{}}
		cpu0, t0 := cpuTime(), time.Now()
		var wg sync.WaitGroup
		for w := range results {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res := &results[w]
				for i, rd := range block {
					if rd.pair {
						rv.meet(i)
					}
					op := rd.op[w]
					t0 := time.Now()
					err := e.do(ctx, w, op)
					lat := time.Since(t0)
					res.attempted++
					if err != nil {
						res.failed++
						res.errs = append(res.errs, err)
						continue
					}
					res.latency[op.class] = append(res.latency[op.class], lat)
				}
			}()
		}
		wg.Wait()
		out.blocks = append(out.blocks, time.Since(t0))
		out.blocksCPU = append(out.blocksCPU, cpuTime()-cpu0)
	}
	for _, r := range results {
		out.attempted += r.attempted
		out.failed += r.failed
		out.errs = append(out.errs, r.errs...)
		for c := range r.latency {
			out.latency[c] = append(out.latency[c], r.latency[c]...)
		}
	}
	return out
}

// registry is the warm registry workload: set-up seeds a fresh
// registry (cold runs plus one warm-up per request class), three
// times; the timed part replays the seeded mix on the last one.
func registry(ctx context.Context, cfg config) (*outcome, error) {
	o := newOutcome()
	mix := genMix(cfg.seed, mixBlocks, len(fleet), len(defaultProbes))
	var e *registryEnv
	for range setupRepeats {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		var err error
		if e, err = setUpRegistry(ctx, cfg.engineSeed()); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		o.setups = append(o.setups, time.Since(t0))
	}
	defer e.close()

	before := e.reg.Stats()
	m := startMeter()
	res := e.runMix(ctx, mix, cfg.seconds)
	o.timed = m.stop()
	after := e.reg.Stats()

	o.attempted, o.failed = res.attempted, res.failed
	for _, err := range res.errs {
		o.note(err)
	}
	o.ops, o.opsCPU = res.blocks, res.blocksCPU
	requests := 0
	for c, lats := range res.latency {
		requests += len(lats)
		o.named[classNames[c]+"_p50_ms"] = sample{"ms", millis(lats)}
	}
	get := millis(res.latency[classGet])
	o.named["get_p99_ms"] = sample{"ms", []float64{percentile(get, 99)}}
	o.named["req_per_s"] = sample{"1/s", []float64{float64(requests) / o.timed.wall.Seconds()}}

	executed := after.ProbesExecuted - before.ProbesExecuted
	o.require(executed == 0, "registry executed %d probes during the warm mix", executed)
	o.require(e.newConns.Load() == 2, "load generator opened %d connections, want 2", e.newConns.Load())
	for w, c := range e.clients {
		o.require(c.cache.SkippedStores() == 0, "connection %d: %d boot stores skipped", w, c.cache.SkippedStores())
	}
	if !cfg.traced {
		return o, nil
	}

	o.gcLayers(len(o.ops))
	o.layers["loadgen.new_conns"] = float64(e.newConns.Load())
	for c := range numClasses {
		o.layers["loadgen."+classNames[c]+"_p50_ms"] = median(o.named[classNames[c]+"_p50_ms"].samples)
	}
	o.layers["loadgen.get_p99_ms"] = percentile(get, 99)
	o.layers["server.probes_executed"] = float64(executed)
	if runs := len(res.latency[classRun]); runs > 0 {
		o.layers["server.coalesced_ratio"] = float64(after.RunsCoalesced-before.RunsCoalesced) / float64(runs)
	}
	hits, misses := after.StoreHits-before.StoreHits, after.StoreMisses-before.StoreMisses
	if hits+misses > 0 {
		o.layers["server.store_hit_ratio"] = float64(hits) / float64(hits+misses)
	}

	// Node boots once more with a tracer, for the session's restore
	// counters.
	tr := obs.New()
	for m := range fleet {
		if err := e.boot(obs.WithTracer(ctx, tr), 0, m); err != nil {
			return nil, err
		}
	}
	c := tr.Counters()
	restored, ran := c[obs.CounterProbesRestored], c[obs.CounterProbesRan]
	o.layers["servet.session.probes_restored_ratio"] = float64(restored) / float64(max(restored+ran, 1))
	return o, directLayers(ctx, cfg, o, e.reps, e)
}
