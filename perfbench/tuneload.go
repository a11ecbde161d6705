package main

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"servet"
	"servet/internal/obs"
)

// tuneModels are the machines the tune workload characterizes in
// set-up, and tuneProbes the probes it runs on them.
var (
	tuneModels = []string{"dunnington", "finisterrae"}
	tuneProbes = []string{"cache-size", "communication-costs"}
)

// tuneParallelism is the campaign's evaluation worker count. The
// campaign runs one worker so that its host time tracks its CPU time:
// with a worker per CPU, the Go runtime's own threads and any neighbour
// on the host make each grid round wait for the slower CPU, and the
// campaign time then measures the scheduler more than the engine.
const tuneParallelism = 1

// search is one search of the tune campaign.
type search struct {
	report   int // index into tuneModels
	space    servet.TuneSpace
	spec     servet.ObjectiveSpec
	strategy string
	budget   int
}

// campaign is the tune workload's operation: a tiled kernel searched
// by grid and by annealing at a larger size (memsys-bound), a
// simulated broadcast over algorithm × placement (mpisim-bound) and a
// cost model under a large random search (engine-bound).
var campaign = []search{
	{0, servet.TuneSpace{Axes: []servet.TuneAxis{servet.IntRangeAxis("tile", 1, 64, 1)}},
		servet.ObjectiveSpec{Name: servet.ObjectiveTiledKernel, Params: json.RawMessage(`{"n":256}`)},
		"grid", 64},
	{0, servet.TuneSpace{Axes: []servet.TuneAxis{servet.IntRangeAxis("tile", 1, 256, 1)}},
		servet.ObjectiveSpec{Name: servet.ObjectiveTiledKernel, Params: json.RawMessage(`{"n":512}`)},
		"anneal", 24},
	{1, servet.TuneSpace{Axes: []servet.TuneAxis{
		servet.ChoiceAxis("algorithm", "flat", "binomial-tree"),
		servet.ChoiceAxis("placement", "packed", "spread")}},
		servet.ObjectiveSpec{Name: servet.ObjectiveBcastSim, Params: json.RawMessage(`{"ranks":32,"bytes":65536}`)},
		"grid", 4},
	{1, servet.TuneSpace{Axes: []servet.TuneAxis{servet.IntRangeAxis("batch", 1, 4096, 1)}},
		servet.ObjectiveSpec{Name: servet.ObjectiveAggregationModel, Params: json.RawMessage(`{"bytes":512,"messages":4096}`)},
		"random", 1500},
}

// runCampaign runs every search of the campaign and returns the
// results' JSON with the wall-clock provenance zeroed, which must be
// byte-identical across repeats.
func runCampaign(ctx context.Context, reps []*servet.Report, seed int64) ([]byte, error) {
	var results []*servet.TuneResult
	for _, s := range campaign {
		obj, err := servet.NewObjective(s.spec)
		if err != nil {
			return nil, err
		}
		res, err := servet.Tune(ctx, reps[s.report], s.space, obj,
			servet.TuneStrategy(s.strategy), servet.TuneSeed(seed),
			servet.TuneBudget(s.budget), servet.TuneParallelism(tuneParallelism))
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", s.spec.Name, s.strategy, err)
		}
		res.Provenance = servet.TuneResult{}.Provenance
		results = append(results, res)
	}
	return json.Marshal(results)
}

// tuneCampaign is the tune workload. Set-up characterizes the tune
// models with the tune probes; every campaign's results must match the
// run's first campaign byte for byte. A traced run spends the first
// half of its time on untraced campaigns and the second half on traced
// ones.
func tuneCampaign(ctx context.Context, cfg config) (*outcome, error) {
	o := newOutcome()
	var reps []*servet.Report
	for range setupRepeats {
		t0 := time.Now()
		reps = reps[:0]
		for _, name := range tuneModels {
			r, err := characterizeModel(ctx, name, cfg.engineSeed(), tuneProbes...)
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			reps = append(reps, r)
		}
		o.setups = append(o.setups, time.Since(t0))
	}

	var ref []byte
	check := func(got []byte, err error) error {
		switch {
		case err != nil:
			return err
		case ref == nil:
			ref = got
		case string(got) != string(ref):
			return fmt.Errorf("campaign results differ from the run's first campaign")
		}
		return nil
	}
	start := time.Now()
	untracedEnd, end := start.Add(cfg.seconds), start.Add(cfg.seconds)
	if cfg.traced {
		untracedEnd = start.Add(cfg.seconds / 2)
	}
	m := startMeter()
	for time.Now().Before(untracedEnd) {
		var got []byte
		err := o.timeOp(func() (err error) {
			got, err = runCampaign(ctx, reps, cfg.engineSeed())
			return err
		})
		o.verify(check(got, err))
	}
	o.timed = m.stop()
	o.named["tune_s"] = sample{"s", seconds(o.ops)}
	if !cfg.traced {
		return o, nil
	}

	o.gcLayers(len(o.ops))
	var traced []time.Duration
	var perOp []map[string]float64
	for first := true; first || time.Now().Before(end); first = false {
		tr := obs.New()
		t0 := time.Now()
		got, err := runCampaign(obs.WithTracer(ctx, tr), reps, cfg.engineSeed())
		d := time.Since(t0)
		if err = check(got, err); err != nil {
			o.verify(err)
			continue
		}
		o.verify(nil)
		traced = append(traced, d)
		perOp = append(perOp, campaignLayers(tr))
	}
	for k, v := range medians(perOp) {
		o.layers[k] = v
	}
	if len(traced) > 0 {
		o.layers["obs.overhead_ratio"] = median(seconds(traced))/median(seconds(o.ops)) - 1
	}
	o.named["tune_traced_s"] = sample{"s", seconds(traced)}
	return o, directLayers(ctx, cfg, o, reps, nil)
}

// campaignLayers derives the tune layer metrics of one traced
// campaign: evaluation counts and times per objective, and the
// engine's own time (search spans minus the evaluations they cover).
func campaignLayers(tr *obs.Tracer) map[string]float64 {
	out := map[string]float64{}
	var searches, evals []interval
	evalSum, evalN := map[string]time.Duration{}, map[string]int{}
	for _, s := range tr.Spans() {
		if s.Cat != "tune" {
			continue
		}
		iv := interval{s.Start, s.Start + s.Dur}
		switch {
		case strings.HasPrefix(s.Name, "search:"):
			searches = append(searches, iv)
		case strings.HasPrefix(s.Name, "eval:"):
			evals = append(evals, iv)
			key := strings.TrimPrefix(s.Name, "eval:")
			if strings.HasSuffix(key, "-model") {
				key = "model"
			}
			evalSum[key] += s.Dur
			evalN[key]++
		}
	}
	var overhead time.Duration
	for _, s := range searches {
		overhead += selfTime(s, evals)
	}
	out["tune.engine_overhead_s"] = overhead.Seconds()
	for key, sum := range evalSum {
		out["tune.eval_us."+key] = sum.Seconds() * 1e6 / float64(evalN[key])
	}
	c := tr.Counters()
	out["tune.evaluations"] = float64(c[obs.CounterTuneEvaluations])
	out["tune.scratch.fresh"] = float64(c[obs.CounterTuneScratchFresh])
	return out
}
