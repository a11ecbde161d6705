package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"servet"
	"servet/internal/obs"
)

// fleet is the cluster the characterize and registry workloads
// characterize: the paper's two machines plus a two-socket Nehalem.
// finisterrae runs with 2 nodes, as servet.Models(2) builds it.
var fleet = []string{"dunnington", "finisterrae", "nehalem2s"}

// fleetNodes is the node count of the multi-node models in the fleet;
// it matches the registry's default.
const fleetNodes = 2

// parallelism is the worker count of every fan-out the benchmark
// drives: the container it was sized for has 2 CPUs.
const parallelism = 2

func fleetMachine(name string) *servet.Machine { return servet.Models(fleetNodes)[name] }

// defaultProbes are the four stages of the paper's suite, whose spans
// the traced pass attributes.
var defaultProbes = []string{"cache-size", "shared-caches", "memory-overhead", "communication-costs"}

// characterizeModel runs one cold quick characterization.
func characterizeModel(ctx context.Context, name string, seed int64, probes ...string) (*servet.Report, error) {
	s, err := servet.NewSession(fleetMachine(name),
		servet.WithQuick(), servet.WithSeed(seed), servet.WithParallelism(parallelism))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	r, err := s.Run(ctx, probes...)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return r, nil
}

// characterizeFleet characterizes every model of the fleet in turn.
// With tracers, model i records into tracers[i].
func characterizeFleet(ctx context.Context, seed int64, tracers []*obs.Tracer) ([]*servet.Report, error) {
	reps := make([]*servet.Report, len(fleet))
	for i, name := range fleet {
		c := ctx
		if tracers != nil {
			c = obs.WithTracer(ctx, tracers[i])
		}
		r, err := characterizeModel(c, name, seed)
		if err != nil {
			return nil, err
		}
		reps[i] = r
	}
	return reps, nil
}

// checkCaches verifies that a report detected exactly the model's
// cache hierarchy: levels, sizes and sharing groups.
func checkCaches(m *servet.Machine, r *servet.Report) error {
	if len(r.Caches) != len(m.Caches) {
		return fmt.Errorf("%s: detected %d cache levels, model has %d", m.Name, len(r.Caches), len(m.Caches))
	}
	for i, want := range m.Caches {
		got := r.Caches[i]
		if got.Level != want.Level || got.SizeBytes != want.SizeBytes {
			return fmt.Errorf("%s: cache %d detected as L%d %d B, model has L%d %d B",
				m.Name, i, got.Level, got.SizeBytes, want.Level, want.SizeBytes)
		}
		if g, w := normGroups(got.SharedGroups), normGroups(sharedOnly(want.Groups)); !slices.EqualFunc(g, w, slices.Equal) {
			return fmt.Errorf("%s: L%d sharing detected as %v, model has %v", m.Name, want.Level, g, w)
		}
	}
	return nil
}

// sharedOnly returns groups unless every group is a single core, the
// case a report writes as "private" (no groups).
func sharedOnly(groups [][]int) [][]int {
	for _, g := range groups {
		if len(g) > 1 {
			return groups
		}
	}
	return nil
}

// normGroups sorts each group and the groups, so two partitions
// compare equal regardless of order.
func normGroups(groups [][]int) [][]int {
	out := make([][]int, len(groups))
	for i, g := range groups {
		out[i] = slices.Sorted(slices.Values(g))
	}
	sort.Slice(out, func(i, j int) bool { return slices.Compare(out[i], out[j]) < 0 })
	return out
}

// canonical is the reports' JSON with every wall-clock field zeroed:
// what must be byte-identical between runs of the same seed.
func canonical(reps []*servet.Report) ([]byte, error) {
	cps := make([]*servet.Report, len(reps))
	for i, r := range reps {
		cp := r.Clone()
		for j := range cp.Timings {
			cp.Timings[j].Wall = 0
		}
		for j := range cp.Provenance {
			cp.Provenance[j].Wall = 0
			cp.Provenance[j].Timestamp = time.Time{}
		}
		cps[i] = cp
	}
	return json.Marshal(cps)
}

// checkFleet verifies one fleet characterization: every model has a
// cache hierarchy, and the reports are byte-identical to the run's
// first fleet (ref, set on first call) once wall-clock fields are
// zeroed. Whether the hierarchy matches the model is accuracy, not
// correctness (quick mode is documented as less precise); exactRatio
// measures it.
func checkFleet(reps []*servet.Report, ref *[]byte) error {
	for i, r := range reps {
		if len(r.Caches) == 0 {
			return fmt.Errorf("%s: no cache level detected", fleet[i])
		}
	}
	got, err := canonical(reps)
	if err != nil {
		return err
	}
	if *ref == nil {
		*ref = got
	} else if !bytes.Equal(got, *ref) {
		return fmt.Errorf("fleet reports differ from the run's first fleet")
	}
	return nil
}

// exactRatio is the share of the fleet whose detected cache hierarchy
// equals the model's exactly.
func exactRatio(reps []*servet.Report) float64 {
	exact := 0
	for i, r := range reps {
		if checkCaches(fleetMachine(fleet[i]), r) == nil {
			exact++
		}
	}
	return float64(exact) / float64(len(reps))
}

// characterize is the cold fleet characterization workload. Set-up is
// a warm-up characterization of the smallest model at another seed, so
// lazy runtime set-up is not timed. A traced run spends the first half
// of its time on untraced fleets and the second half on traced ones.
func characterize(ctx context.Context, cfg config) (*outcome, error) {
	o := newOutcome()
	for range setupRepeats {
		t0 := time.Now()
		if _, err := characterizeModel(ctx, "nehalem2s", cfg.engineSeed()+1); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		o.setups = append(o.setups, time.Since(t0))
	}

	var ref []byte
	var exact []float64
	start := time.Now()
	untracedEnd, end := start.Add(cfg.seconds), start.Add(cfg.seconds)
	if cfg.traced {
		untracedEnd = start.Add(cfg.seconds / 2)
	}
	m := startMeter()
	for time.Now().Before(untracedEnd) {
		var reps []*servet.Report
		err := o.timeOp(func() (err error) {
			reps, err = characterizeFleet(ctx, cfg.engineSeed(), nil)
			return err
		})
		if err == nil {
			err = checkFleet(reps, &ref)
			exact = append(exact, exactRatio(reps))
		}
		o.verify(err)
	}
	o.timed = m.stop()
	o.named["characterize_s"] = sample{"s", seconds(o.ops)}
	o.named["detect_exact_ratio"] = sample{"ratio", exact}
	o.layers["core.detect.exact_ratio"] = median(exact)
	if !cfg.traced {
		return o, nil
	}

	o.gcLayers(len(o.ops))
	var traced []time.Duration
	var perOp []map[string]float64
	var last []*servet.Report
	for first := true; first || time.Now().Before(end); first = false {
		trs := make([]*obs.Tracer, len(fleet))
		for i := range trs {
			trs[i] = obs.New()
		}
		t0 := time.Now()
		reps, err := characterizeFleet(ctx, cfg.engineSeed(), trs)
		d := time.Since(t0)
		if err == nil {
			err = checkFleet(reps, &ref)
		}
		o.verify(err)
		if err != nil {
			continue
		}
		traced = append(traced, d)
		perOp = append(perOp, fleetLayers(trs))
		last = reps
	}
	for k, v := range medians(perOp) {
		o.layers[k] = v
	}
	o.named["characterize_traced_s"] = sample{"s", seconds(traced)}
	if last == nil {
		return o, nil
	}
	o.layers["obs.overhead_ratio"] = median(seconds(traced))/median(seconds(o.ops)) - 1
	return o, directLayers(ctx, cfg, o, last, nil)
}

// fleetLayers derives the core, sched and memsys layer metrics of one
// traced fleet characterization, one tracer per model.
func fleetLayers(trs []*obs.Tracer) map[string]float64 {
	out := map[string]float64{}
	var sweepTotal, leafTotal, wall time.Duration
	var measurements, restored, ran int64
	// Per sweep, Σ max and Σ mean of each model's chunk times: the
	// fleet's imbalance, weighted by how long each model's sweep ran.
	imb := map[string]*[2]float64{"shared": {}, "mcal": {}}
	for _, tr := range trs {
		var sched []obs.SpanRecord
		chunks := map[string][]float64{}
		for _, s := range tr.Spans() {
			switch s.Cat {
			case "probe":
				if slices.Contains(defaultProbes, s.Name) {
					out["core.probe."+s.Name+"_s"] += s.Dur.Seconds()
				}
			case "sweep":
				sweepTotal += s.Dur
			case "session":
				if s.Name == "run" {
					wall += s.Dur
				}
			case "sched":
				sched = append(sched, s)
				if sweep, _, ok := strings.Cut(s.Name, ":"); ok {
					chunks[sweep] = append(chunks[sweep], s.Dur.Seconds())
				}
			}
		}
		leafTotal += leafSpans(sched)
		for sweep, acc := range imb {
			if xs := chunks[sweep]; len(xs) > 0 {
				acc[0] += slices.Max(xs)
				acc[1] += mean(xs)
			}
		}
		c := tr.Counters()
		measurements += c[obs.CounterSweepMeasurements]
		restored += c[obs.CounterProbesRestored]
		ran += c[obs.CounterProbesRan]
		out["memsys.instance.fresh"] += float64(c[obs.CounterMemsysFresh])
		out["memsys.instance.reset"] += float64(c[obs.CounterMemsysReset])
	}
	out["core.sweep.measurements"] = float64(measurements)
	if measurements > 0 {
		out["core.sweep.us_per_measurement"] = sweepTotal.Seconds() * 1e6 / float64(measurements)
	}
	for sweep, acc := range imb {
		if acc[1] > 0 {
			out["core.sweep."+sweep+".imbalance"] = acc[0] / acc[1]
		}
	}
	if wall > 0 {
		out["sched.parallel_efficiency"] = leafTotal.Seconds() / (parallelism * wall.Seconds())
		out["sched.idle_s"] = (parallelism*wall - leafTotal).Seconds()
	}
	if restored+ran > 0 {
		out["servet.session.probes_restored_ratio"] = float64(restored) / float64(restored+ran)
	}
	return out
}

// leafSpans sums the durations of the spans that contain no other
// span: the scheduler tasks doing the work, not the ones waiting on
// nested fan-outs.
func leafSpans(spans []obs.SpanRecord) time.Duration {
	var total time.Duration
	for i, s := range spans {
		leaf := true
		for j, c := range spans {
			if i != j && c.Start >= s.Start && c.Start+c.Dur <= s.Start+s.Dur && c.Dur < s.Dur {
				leaf = false
				break
			}
		}
		if leaf {
			total += s.Dur
		}
	}
	return total
}

// medians returns, per key, the median of its values over maps.
func medians(maps []map[string]float64) map[string]float64 {
	vals := map[string][]float64{}
	for _, m := range maps {
		for k, v := range m {
			vals[k] = append(vals[k], v)
		}
	}
	out := make(map[string]float64, len(vals))
	for k, xs := range vals {
		out[k] = median(xs)
	}
	return out
}
