// Command servet-tune searches a parameter space for the
// configuration minimizing an objective against a Servet report — the
// command-line face of servet.Tune and of the registry's POST
// /v1/tune endpoint.
//
// The space is declared axis by axis with repeatable -axis flags:
//
//	-axis tile=pow2:4:256              powers of two in [4, 256]
//	-axis batch=range:1:64:4           1, 5, 9, ... 61
//	-axis algorithm=choice:flat,binomial-tree
//
// The report to tune against comes from one of three places: a report
// file written by cmd/servet (-report), a local probe run on a machine
// model (-machine alone), or a probe registry (-url), which resolves
// the report server-side — running stale probes first — and executes
// the search there.
//
// Usage:
//
//	servet-tune -report servet.json -objective tiled-kernel \
//	    -params '{"n":128}' -axis tile=pow2:4:256
//	servet-tune -machine dempsey -quick -objective aggregation-model \
//	    -params '{"bytes":256,"messages":64}' -axis batch=pow2:1:64
//	servet-tune -url http://head-node:8077 -machine dempsey -quick \
//	    -objective bcast-model -params '{"ranks":16,"bytes":4096}' \
//	    -axis algorithm=choice:flat,binomial-tree
//	servet-tune -list-objectives
//
// The search is deterministic: the same report, space, objective,
// strategy, seed and budget produce byte-identical results locally
// and remotely, at any -parallel value.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"

	"servet"
	"servet/internal/obs"
	"servet/internal/regproto"
	"servet/internal/tune"
)

// axisFlags collects repeatable -axis specs.
type axisFlags []servet.TuneAxis

func (a *axisFlags) String() string { return fmt.Sprintf("%d axes", len(*a)) }

func (a *axisFlags) Set(spec string) error {
	ax, err := parseAxis(spec)
	if err != nil {
		return err
	}
	*a = append(*a, ax)
	return nil
}

// parseAxis parses "name=kind:..." axis specs.
func parseAxis(spec string) (servet.TuneAxis, error) {
	name, rest, ok := strings.Cut(spec, "=")
	if !ok || name == "" {
		return servet.TuneAxis{}, fmt.Errorf("axis %q: want name=kind:...", spec)
	}
	kind, body, _ := strings.Cut(rest, ":")
	switch kind {
	case "range":
		parts := strings.Split(body, ":")
		if len(parts) != 2 && len(parts) != 3 {
			return servet.TuneAxis{}, fmt.Errorf("axis %q: want %s=range:min:max[:step]", spec, name)
		}
		nums := make([]int64, len(parts))
		for i, p := range parts {
			n, err := strconv.ParseInt(p, 10, 64)
			if err != nil {
				return servet.TuneAxis{}, fmt.Errorf("axis %q: %w", spec, err)
			}
			nums[i] = n
		}
		step := int64(1)
		if len(nums) == 3 {
			step = nums[2]
		}
		return servet.IntRangeAxis(name, nums[0], nums[1], step), nil
	case "pow2":
		parts := strings.Split(body, ":")
		if len(parts) != 2 {
			return servet.TuneAxis{}, fmt.Errorf("axis %q: want %s=pow2:min:max", spec, name)
		}
		min, err1 := strconv.ParseInt(parts[0], 10, 64)
		max, err2 := strconv.ParseInt(parts[1], 10, 64)
		if err1 != nil || err2 != nil {
			return servet.TuneAxis{}, fmt.Errorf("axis %q: bounds must be integers", spec)
		}
		return servet.Pow2Axis(name, min, max), nil
	case "choice":
		choices := strings.Split(body, ",")
		return servet.ChoiceAxis(name, choices...), nil
	}
	return servet.TuneAxis{}, fmt.Errorf("axis %q: unknown kind %q (want range, pow2 or choice)", spec, kind)
}

func main() {
	var axes axisFlags
	var (
		machine   = flag.String("machine", "dunnington", "machine model for a local probe run or a registry tune")
		nodes     = flag.Int("nodes", 2, "cluster nodes for multi-node models")
		reportIn  = flag.String("report", "", "tune against this report file instead of probing")
		url       = flag.String("url", "", "probe-registry URL: resolve the report and run the search server-side")
		objective = flag.String("objective", "", "objective name (see -list-objectives)")
		params    = flag.String("params", "", "objective parameters as JSON")
		strategy  = flag.String("strategy", "auto", "search strategy (auto, grid, random, anneal)")
		tuneSeed  = flag.Int64("tune-seed", 1, "seed for the search's stochastic decisions")
		budget    = flag.Int("budget", 64, "maximum objective evaluations")
		parallel  = flag.Int("parallel", 1, "concurrent evaluations for local tunes (results are identical at any value)")
		seed      = flag.Int64("seed", 1, "probe seed for local runs and registry requests")
		noise     = flag.Float64("noise", 0, "relative measurement noise for the probe run")
		quick     = flag.Bool("quick", false, "fewer probe repetitions (faster, less precise)")
		probes    = flag.String("probes", "", "comma-separated probe subset for the report run")
		out       = flag.String("out", "", "write the tune result JSON to this path")
		asJSON    = flag.Bool("json", false, "print the full result JSON instead of the summary")
		listObjs  = flag.Bool("list-objectives", false, "list objective names and exit")
		trace     = flag.Bool("trace", false, "print every evaluation, not just the best")
		traceOut  = flag.String("trace-out", "", "write a Chrome trace-event JSON of the local search to this path (incompatible with -url: remote searches run server-side)")
	)
	flag.Var(&axes, "axis", "axis spec name=kind:... (repeatable; kinds: range:min:max[:step], pow2:min:max, choice:a,b,...)")
	flag.Parse()

	if *listObjs {
		fmt.Println(strings.Join(servet.ObjectiveNames(), "\n"))
		return
	}
	if *objective == "" {
		fmt.Fprintln(os.Stderr, "servet-tune: -objective is required (see -list-objectives)")
		os.Exit(2)
	}
	if len(axes) == 0 {
		fmt.Fprintln(os.Stderr, "servet-tune: at least one -axis is required")
		os.Exit(2)
	}
	space := servet.TuneSpace{Axes: axes}
	spec := servet.ObjectiveSpec{Name: *objective}
	if *params != "" {
		spec.Params = json.RawMessage(*params)
	}
	var probeNames []string
	if *probes != "" {
		for _, name := range strings.Split(*probes, ",") {
			if name = strings.TrimSpace(name); name != "" {
				probeNames = append(probeNames, name)
			}
		}
	}

	if *traceOut != "" && *url != "" {
		fmt.Fprintln(os.Stderr, "servet-tune: -trace-out needs a local search, but -url runs it server-side: drop one of the two")
		os.Exit(2)
	}
	// Tracing observes the search without perturbing it: results are
	// byte-identical with tracing on or off.
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.New()
	}

	var res *servet.TuneResult
	var err error
	if *url != "" {
		res, err = tuneRemote(*url, regproto.TuneRequest{
			Run: regproto.RunRequest{
				Machine: *machine, Nodes: *nodes, Probes: probeNames,
				Seed: *seed, Noise: *noise, Quick: *quick,
			},
			Space: space, Objective: spec,
			Strategy: *strategy, Seed: *tuneSeed, Budget: *budget,
		})
	} else {
		res, err = tuneLocal(obs.WithTracer(context.Background(), tracer), space, spec, tune.Options{
			Strategy: *strategy, Seed: *tuneSeed, Budget: *budget, Parallelism: *parallel,
		}, localRun{
			reportPath: *reportIn, machine: *machine, nodes: *nodes,
			seed: *seed, noise: *noise, quick: *quick, probes: probeNames,
			parallel: *parallel,
		})
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "servet-tune: %v\n", err)
		os.Exit(1)
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut, tracer); err != nil {
			fmt.Fprintf(os.Stderr, "servet-tune: -trace-out: %v\n", err)
			os.Exit(1)
		}
	}

	if *out != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "servet-tune: %v\n", err)
			os.Exit(1)
		}
	}
	switch {
	case *asJSON:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(res)
	default:
		fmt.Println(res.Summary())
		if *trace {
			for _, tp := range res.Trace {
				fmt.Printf("  round %2d  [%s]  %g\n", tp.Round, res.Space.Describe(tp.Config), tp.Score)
			}
		}
	}
}

// localRun describes where the local report comes from.
type localRun struct {
	reportPath string
	machine    string
	nodes      int
	seed       int64
	noise      float64
	quick      bool
	probes     []string
	parallel   int
}

// writeTrace saves the tracer's spans as a Chrome trace-event file.
func writeTrace(path string, tr *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tuneLocal resolves a report (file or fresh probe run) and searches
// locally; the context's tracer (if any) records both the probe run
// and the search.
func tuneLocal(ctx context.Context, space servet.TuneSpace, spec servet.ObjectiveSpec, opt tune.Options, run localRun) (*servet.TuneResult, error) {
	obj, err := servet.NewObjective(spec)
	if err != nil {
		return nil, err
	}
	var rep *servet.Report
	if run.reportPath != "" {
		rep, err = servet.LoadReport(run.reportPath)
		if err != nil {
			return nil, err
		}
	} else {
		m, ok := servet.Models(run.nodes)[run.machine]
		if !ok {
			return nil, fmt.Errorf("unknown machine %q", run.machine)
		}
		opts := []servet.Option{
			servet.WithSeed(run.seed),
			servet.WithNoise(run.noise),
			servet.WithParallelism(run.parallel),
		}
		if run.quick {
			opts = append(opts, servet.WithQuick())
		}
		ses, err := servet.NewSession(m, opts...)
		if err != nil {
			return nil, err
		}
		rep, err = ses.Run(ctx, run.probes...)
		if err != nil {
			return nil, err
		}
	}
	return servet.Tune(ctx, rep, space, obj,
		servet.TuneStrategy(opt.Strategy), servet.TuneSeed(opt.Seed),
		servet.TuneBudget(opt.Budget), servet.TuneParallelism(opt.Parallelism))
}

// tuneRemote posts the request to a registry's /v1/tune.
func tuneRemote(base string, tr regproto.TuneRequest) (*servet.TuneResult, error) {
	body, err := json.Marshal(tr)
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(strings.TrimSuffix(base, "/")+regproto.TunePath,
		"application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		var e regproto.Error
		if json.Unmarshal(data, &e) == nil && e.Message != "" {
			return nil, fmt.Errorf("registry: %s (%s)", e.Message, e.Code)
		}
		return nil, fmt.Errorf("registry: status %d", resp.StatusCode)
	}
	var res servet.TuneResult
	if err := json.NewDecoder(io.LimitReader(resp.Body, regproto.MaxReportBytes)).Decode(&res); err != nil {
		return nil, err
	}
	return &res, nil
}
