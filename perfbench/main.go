// Command perfbench is the repository benchmark. It times servet end to
// end on three workloads and, with --trace 1, breaks that time down by
// layer. Run it from the repository root through its build script:
//
//	bash perfbench/run.sh --workload characterize --seed 1 --seconds 30 --trace 0
//
// Workloads (see BENCHMARK.json for why each was chosen):
//
//   - characterize: cold quick characterization of a three-model fleet
//     (dunnington, finisterrae with 2 nodes, nehalem2s) at parallelism
//     2, with no cache. One operation is one fleet.
//   - tune: a four-search servet.Tune campaign, one evaluation worker,
//     against cache-size and communication-costs reports built in
//     set-up. One operation is one campaign.
//   - registry: an in-process registry on loopback, seeded with the
//     fleet in set-up, driven by a closed loop over 2 keep-alive
//     connections replaying a request mix generated from the seed. One
//     operation is one block of 40 requests of fixed composition (a
//     node boot counts as one request; see mix.go).
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics (layerTable) with --trace 1. The
// lines before it are the run record: machine, Go version, commit,
// seed, and each metric's sample count, median and tail percentile.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupRepeats is how many times each workload sets up; setup_s is the
// median.
const setupRepeats = 3

// maxNotes caps the failure messages a run record keeps.
const maxNotes = 5

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
}

// engineSeed is the seed the workload's probes and searches run under; it is
// derived from the workload seed and never 0, which the engine would
// read as "default".
func (c config) engineSeed() int64 { return c.seed + 1 }

var workloads = map[string]func(context.Context, config) (*outcome, error){
	"characterize": characterize,
	"tune":         tuneCampaign,
	"registry":     registry,
}

// sample is one named figure of a run with all its samples.
type sample struct {
	unit    string
	samples []float64
}

// outcome is what a workload run measured.
type outcome struct {
	setups []time.Duration
	// ops and opsCPU hold the host and process CPU time of every
	// untraced operation of the timed part.
	ops, opsCPU []time.Duration
	timed       meterDelta

	attempted, failed int
	// invalid lists run-level checks that failed (not tied to one
	// operation); any makes the run incorrect.
	invalid []string
	notes   []string

	// named holds the workload's own figures for the run record
	// (characterize_s, get_p50_ms, ...): they exist on one workload
	// only, so they cannot be end-to-end metrics, which every workload
	// reports.
	named map[string]sample
	// layers holds the per-layer metrics a traced run measured.
	layers map[string]float64
}

func newOutcome() *outcome {
	return &outcome{named: map[string]sample{}, layers: map[string]float64{}}
}

// verify counts one attempted operation and, when err is non-nil, one
// failed one.
func (o *outcome) verify(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		o.note(err)
	}
}

func (o *outcome) note(err error) {
	if len(o.notes) < maxNotes {
		o.notes = append(o.notes, err.Error())
	}
}

// timeOp runs one untraced operation of the timed part and records its
// host and CPU time.
func (o *outcome) timeOp(op func() error) error {
	cpu0, t0 := cpuTime(), time.Now()
	err := op()
	o.ops = append(o.ops, time.Since(t0))
	o.opsCPU = append(o.opsCPU, cpuTime()-cpu0)
	return err
}

// require records a run-level check.
func (o *outcome) require(ok bool, format string, args ...any) {
	if !ok {
		o.invalid = append(o.invalid, fmt.Sprintf(format, args...))
	}
}

// meter measures wall time and Go heap activity over a stretch of the
// run.
type meter struct {
	wall time.Time
	mem  runtime.MemStats
}

type meterDelta struct {
	wall       time.Duration
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
}

func startMeter() *meter {
	m := &meter{}
	runtime.ReadMemStats(&m.mem)
	m.wall = time.Now()
	return m
}

func (m *meter) stop() meterDelta {
	wall := time.Since(m.wall)
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	return meterDelta{
		wall:       wall,
		allocBytes: end.TotalAlloc - m.mem.TotalAlloc,
		gcCycles:   end.NumGC - m.mem.NumGC,
		gcPause:    time.Duration(end.PauseTotalNs - m.mem.PauseTotalNs),
	}
}

// cpuTime is the user plus system CPU time of the whole process.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcLayers fills the runtime.* layer metrics from the timed part.
func (o *outcome) gcLayers(ops int) {
	if ops == 0 {
		return
	}
	o.layers["runtime.gc_cycles_per_op"] = float64(o.timed.gcCycles) / float64(ops)
	o.layers["runtime.gc_pause_ms"] = o.timed.gcPause.Seconds() * 1e3 / float64(ops)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd derives the end-to-end metrics, with their samples for the
// run record. Every metric exists on every workload; a run reports
// each sampled one as its median.
func endToEnd(o *outcome) map[string]sample {
	n := float64(len(o.ops))
	return map[string]sample{
		"setup_s":         {"s", seconds(o.setups)},
		"op_p50_ms":       {"ms", millis(o.ops)},
		"cpu_ms_per_op":   {"ms", millis(o.opsCPU)},
		"alloc_mb_per_op": {"MB", []float64{float64(o.timed.allocBytes) / 1e6 / n}},
	}
}

func main() { os.Exit(run()) }

func run() int {
	var cfg config
	var secs, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: characterize, tune or registry")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed (inputs are a pure function of it)")
	flag.IntVar(&secs, "seconds", 30, "length of the timed part, in seconds")
	flag.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a traced pass instead of end-to-end ones")
	flag.Parse()
	w, ok := workloads[cfg.workload]
	if !ok || secs < 1 || trace < 0 || trace > 1 || cfg.seed < 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (characterize, tune or registry), --seed >= 0, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	cfg.seconds = time.Duration(secs) * time.Second
	cfg.traced = trace == 1

	o, err := w(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if len(o.ops) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: no untraced operation completed\n", cfg.workload)
		return 1
	}

	e2e := endToEnd(o)
	res := result{
		Correct:   o.failed == 0 && len(o.invalid) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metric{},
	}
	if cfg.traced {
		for _, l := range layerTable {
			res.Metrics[l.name] = metric{o.layers[l.name], l.unit}
		}
		for name := range o.layers {
			if _, ok := res.Metrics[name]; !ok {
				fmt.Fprintf(os.Stderr, "perfbench: layer metric %q is missing from layerTable\n", name)
				return 1
			}
		}
	} else {
		for name, s := range e2e {
			res.Metrics[name] = metric{median(s.samples), s.unit}
		}
	}

	printRecord(cfg, o, e2e)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// printRecord writes the run record: where and how the run ran, and
// every figure with its sample count, median and tail percentile.
func printRecord(cfg config, o *outcome, e2e map[string]sample) {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	type figure struct {
		Unit    string  `json:"unit"`
		Samples int     `json:"samples"`
		Median  float64 `json:"median"`
		Tail    string  `json:"tail_percentile,omitempty"`
		TailVal float64 `json:"tail_value,omitempty"`
	}
	figures := func(m map[string]sample) map[string]figure {
		out := make(map[string]figure, len(m))
		for name, s := range m {
			f := figure{Unit: s.unit, Samples: len(s.samples), Median: median(s.samples)}
			if p := tailPercentile(len(s.samples)); p > 0 {
				f.Tail = fmt.Sprintf("p%g", p)
				f.TailVal = percentile(s.samples, p)
			}
			out[name] = f
		}
		return out
	}
	failRatio := 0.0
	if o.attempted > 0 {
		failRatio = float64(o.failed) / float64(o.attempted)
	}
	named := map[string]sample{"fail_ratio": {"ratio", []float64{failRatio}}}
	for k, v := range o.named {
		named[k] = v
	}
	rec := map[string]any{
		"workload":         cfg.workload,
		"seed":             cfg.seed,
		"seconds":          cfg.seconds.Seconds(),
		"trace":            cfg.traced,
		"num_cpu":          runtime.NumCPU(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"go_version":       runtime.Version(),
		"commit":           commit,
		"end_to_end":       figures(e2e),
		"workload_figures": figures(named),
		"failures":         o.notes,
		"invalid":          o.invalid,
	}
	if cfg.traced {
		layers := make([]string, 0, len(layerTable))
		for _, l := range layerTable {
			layers = append(layers, fmt.Sprintf("%s = %g %s (moves %s on %s; flat on %s)",
				l.name, o.layers[l.name], l.unit, l.moves, l.on, l.flat))
		}
		sort.Strings(layers)
		rec["layers"] = layers
	}
	out, _ := json.MarshalIndent(map[string]any{"record": rec}, "", "  ")
	fmt.Println(strings.TrimSpace(string(out)))
}
