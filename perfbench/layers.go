package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"servet"
	"servet/internal/memsys"
	"servet/internal/mpisim"
	"servet/internal/regproto"
	"servet/internal/server"
)

// timeCalls runs f n times and returns the median call time.
func timeCalls(n int, f func() error) (time.Duration, error) {
	ds := make([]time.Duration, n)
	for i := range ds {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds[i] = time.Since(t0)
	}
	return time.Duration(median(seconds(ds)) * 1e9), nil
}

func us(d time.Duration) float64 { return d.Seconds() * 1e6 }

// directLayers times the public calls of the layers under the
// workload directly, outside any tracer: memsys and mpisim on the
// models, report/server/servet on reps[0] (dunnington). reps are the
// workload's own reports and name the probes the registry calls ask
// for. e is the workload's live registry, or nil to serve reps from a
// fresh one.
func directLayers(ctx context.Context, cfg config, o *outcome, reps []*servet.Report, e *registryEnv) error {
	if err := memsysLayers(cfg.engineSeed(), o.layers); err != nil {
		return err
	}
	d, err := timeCalls(20, func() error {
		_, err := mpisim.Run(fleetMachine("finisterrae"), 32, nil, func(r *mpisim.Rank) { r.Bcast(0, 65536) })
		return err
	})
	if err != nil {
		return fmt.Errorf("mpisim: %w", err)
	}
	o.layers["mpisim.bcast_us"] = us(d)

	rep := reps[0]
	if err := reportLayers(rep, o.layers); err != nil {
		return err
	}
	reg, url := (*server.Registry)(nil), ""
	if e != nil {
		reg, url = e.reg, e.srv.URL
	} else {
		store := server.NewMemStore()
		for _, r := range reps {
			if err := store.Put(r); err != nil {
				return err
			}
		}
		reg = server.New(store, server.WithParallelism(parallelism))
		srv := httptest.NewServer(reg)
		defer srv.Close()
		url = srv.URL
	}
	var probes []string
	for _, p := range rep.Provenance {
		probes = append(probes, p.Probe)
	}
	if err := serverLayers(ctx, reg, rep, probes, cfg.engineSeed(), o.layers); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	if get := o.layers["loadgen.get_p50_ms"]; get > 0 {
		o.layers["server.transport_share"] = 1 - o.layers["server.handler_us.get"]/(get*1e3)
	}
	return sessionLayers(ctx, rep, probes, url, cfg.engineSeed(), o.layers)
}

// memsysLayers times Instance.AccessRun over an L1-resident and a
// DRAM-sized address list, and ResetAt, on dunnington.
func memsysLayers(seed int64, out map[string]float64) error {
	in := memsys.NewInstance(fleetMachine("dunnington"), seed)
	sp := in.NewSpace()
	const line = 64
	hot := sp.Alloc(16 << 10).Base
	hit := make([]int64, 0, (16<<10)/line)
	for a := int64(0); a < 16<<10; a += line {
		hit = append(hit, hot+a)
	}
	in.AccessRun(0, sp, hit)
	d, _ := timeCalls(200, func() error { in.AccessRun(0, sp, hit); return nil })
	out["memsys.access_hit_ns"] = d.Seconds() * 1e9 / float64(len(hit))

	// Each round maps a fresh DRAM-sized array, misses on random lines
	// of it, then resets the instance (which unmaps every space).
	const dram = 256 << 20
	rng := rand.New(rand.NewSource(seed))
	miss := make([]int64, 4096)
	var missT, resetT []float64
	for i := range 20 {
		in.ResetAt(seed, int64(i))
		sp := in.NewSpace()
		cold := sp.Alloc(dram).Base
		for j := range miss {
			miss[j] = cold + rng.Int63n(dram/line)*line
		}
		t0 := time.Now()
		in.AccessRun(0, sp, miss)
		missT = append(missT, time.Since(t0).Seconds()*1e9/float64(len(miss)))
		t0 = time.Now()
		in.ResetAt(seed, int64(i))
		resetT = append(resetT, time.Since(t0).Seconds()*1e6)
	}
	out["memsys.access_miss_ns"] = median(missT)
	out["memsys.reset_us"] = median(resetT)
	return nil
}

// reportLayers times Clone and the JSON round trip of one report.
func reportLayers(rep *servet.Report, out map[string]float64) error {
	data, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	out["report.bytes"] = float64(len(data))
	d, _ := timeCalls(50, func() error { rep.Clone(); return nil })
	out["report.clone_us"] = us(d)
	d, _ = timeCalls(50, func() error { _, err := json.Marshal(rep); return err })
	out["report.marshal_us"] = us(d)
	d, err = timeCalls(50, func() error { var r servet.Report; return json.Unmarshal(data, &r) })
	out["report.unmarshal_us"] = us(d)
	return err
}

// serverLayers times the registry's handlers through ServeHTTP with a
// recorder (no socket), and MemStore directly.
func serverLayers(ctx context.Context, reg *server.Registry, rep *servet.Report, probes []string, seed int64, out map[string]float64) error {
	fp := rep.Fingerprint
	body, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	runBody, _ := json.Marshal(runRequest(rep.Machine, seed, probes))
	tuneBody, _ := json.Marshal(tuneRequest(rep.Machine, seed, probes))
	calls := []struct {
		name, method, path string
		body               []byte
		want               int
	}{
		{"get", http.MethodGet, regproto.ReportPath(fp), nil, http.StatusOK},
		{"section", http.MethodGet, regproto.ProbePath(fp, probes[0]), nil, http.StatusOK},
		{"put", http.MethodPut, regproto.ReportPath(fp), body, http.StatusNoContent},
		{"run", http.MethodPost, regproto.RunPath, runBody, http.StatusOK},
		{"tune", http.MethodPost, regproto.TunePath, tuneBody, http.StatusOK},
	}
	before := reg.Stats().ProbesExecuted
	for _, c := range calls {
		d, err := timeCalls(30, func() error {
			req := httptest.NewRequestWithContext(ctx, c.method, c.path, bytes.NewReader(c.body))
			rec := httptest.NewRecorder()
			reg.ServeHTTP(rec, req)
			if rec.Code != c.want {
				return fmt.Errorf("%s %s: status %d, want %d", c.method, c.path, rec.Code, c.want)
			}
			return nil
		})
		if err != nil {
			return err
		}
		out["server.handler_us."+c.name] = us(d)
	}
	if n := reg.Stats().ProbesExecuted - before; n != 0 {
		return fmt.Errorf("handler runs executed %d probes", n)
	}

	store := server.NewMemStore()
	d, err := timeCalls(50, func() error { return store.Put(rep) })
	if err != nil {
		return err
	}
	out["server.store.put_us"] = us(d)
	d, err = timeCalls(50, func() error { _, err := store.Get(fp); return err })
	out["server.store.get_us"] = us(d)
	return err
}

// sessionLayers times a warm Session.Run against a primed MemoryCache
// and RemoteCache calls against the registry at url.
func sessionLayers(ctx context.Context, rep *servet.Report, probes []string, url string, seed int64, out map[string]float64) error {
	m := fleetMachine(rep.Machine)
	mc := servet.NewMemoryCache()
	if err := mc.Store(rep.Fingerprint, rep); err != nil {
		return err
	}
	d, err := timeCalls(20, func() error {
		s, err := servet.NewSession(m, servet.WithCache(mc), servet.WithQuick(), servet.WithSeed(seed))
		if err != nil {
			return err
		}
		r, err := s.Run(ctx, probes...)
		if err != nil {
			return err
		}
		for _, p := range r.Provenance {
			if p.Status != servet.ProvenanceCached {
				return fmt.Errorf("warm run: probe %s %s, want cached", p.Probe, p.Status)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["servet.session.warm_run_us"] = us(d)

	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	rc, err := servet.NewRemoteCache(url, servet.WithHTTPClient(&http.Client{Transport: tr, Timeout: time.Minute}))
	if err != nil {
		return err
	}
	d, err = timeCalls(30, func() error {
		if _, ok := rc.Lookup(rep.Fingerprint); !ok {
			return fmt.Errorf("remote cache lookup of %s missed", rep.Machine)
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["servet.remotecache.lookup_us"] = us(d)
	d, err = timeCalls(30, func() error { return rc.Store(rep.Fingerprint, rep) })
	out["servet.remotecache.store_us"] = us(d)
	return err
}
