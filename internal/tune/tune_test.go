package tune

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"servet/internal/report"
)

// testReport mirrors the autotune fixture, on a predefined machine
// model so the simulated objectives can rebuild the topology.
func testReport() *report.Report {
	return &report.Report{
		Machine: "finisterrae", Nodes: 2, CoresPerNode: 8,
		Fingerprint: "test-fp",
		Memory: report.MemoryResult{
			RefBandwidthGBs: 4,
			Levels: []report.OverheadLevel{{
				BandwidthGBs: 2,
				Groups:       [][]int{{0, 1, 2, 3}},
				Scalability: []report.ScalPoint{
					{Cores: 1, PerCoreGBs: 4, AggregateGBs: 4},
					{Cores: 2, PerCoreGBs: 3, AggregateGBs: 6},
					{Cores: 3, PerCoreGBs: 2.1, AggregateGBs: 6.3},
					{Cores: 4, PerCoreGBs: 1.5, AggregateGBs: 6.0},
				},
			}},
		},
		Comm: report.CommResult{
			MessageBytes: 32 << 10,
			Layers: []report.CommLayer{
				{
					Name: "fast", LatencyUS: 2,
					Pairs:          [][2]int{{0, 1}},
					Representative: [2]int{0, 1},
					Bandwidth: []report.BWPoint{
						{Bytes: 1 << 10, OneWayUS: 1, GBs: 1.0},
						{Bytes: 1 << 20, OneWayUS: 500, GBs: 2.1},
					},
					Scalability: []report.CommScalPoint{
						{Messages: 1, MeanCompletionUS: 2, Slowdown: 1},
						{Messages: 2, MeanCompletionUS: 2.2, Slowdown: 1.1},
						{Messages: 8, MeanCompletionUS: 4, Slowdown: 2},
					},
				},
				{
					Name: "slow", LatencyUS: 20,
					Pairs:          [][2]int{{0, 2}},
					Representative: [2]int{0, 2},
					Bandwidth: []report.BWPoint{
						{Bytes: 1 << 10, OneWayUS: 30, GBs: 0.03},
						{Bytes: 1 << 20, OneWayUS: 2000, GBs: 0.5},
					},
				},
			},
		},
	}
}

// quadratic is a smooth test objective with its minimum at tile=48,
// mode=b.
func quadratic() Objective {
	return Func("quadratic", func(ctx context.Context, r *report.Report, sp *Space, cfg Config) (float64, error) {
		tile, err := sp.Int(cfg, "tile")
		if err != nil {
			return 0, err
		}
		mode, err := sp.Str(cfg, "mode")
		if err != nil {
			return 0, err
		}
		s := float64(tile-48) * float64(tile-48)
		if mode != "b" {
			s += 100
		}
		return s, nil
	})
}

func quadraticSpace() Space {
	return Space{Axes: []Axis{
		IntRange("tile", 8, 128, 8),
		Choice("mode", "a", "b", "c"),
	}}
}

func TestAxisSizesAndValues(t *testing.T) {
	cases := []struct {
		ax   Axis
		size int
		vals []Value
	}{
		{IntRange("n", 1, 7, 2), 4, []Value{{Int: 1}, {Int: 3}, {Int: 5}, {Int: 7}}},
		{IntRange("n", 5, 5, 1), 1, []Value{{Int: 5}}},
		{Pow2("p", 4, 32), 4, []Value{{Int: 4}, {Int: 8}, {Int: 16}, {Int: 32}}},
		{Pow2("p", 8, 8), 1, []Value{{Int: 8}}},
		{Choice("c", "x", "y"), 2, []Value{{Str: "x"}, {Str: "y"}}},
	}
	for _, c := range cases {
		if err := c.ax.validate(); err != nil {
			t.Fatalf("%s: unexpected validate error: %v", c.ax.Name, err)
		}
		if got := c.ax.size(); got != c.size {
			t.Errorf("%v: size %d, want %d", c.ax, got, c.size)
		}
		for i, want := range c.vals {
			if got := c.ax.value(i); got != want {
				t.Errorf("%v: value(%d) = %v, want %v", c.ax, i, got, want)
			}
		}
	}
}

func TestSpaceValidateRejects(t *testing.T) {
	bad := []Space{
		{},
		{Axes: []Axis{{Name: "", Kind: KindIntRange, Min: 1, Max: 2, Step: 1}}},
		{Axes: []Axis{{Name: "x", Kind: "weird"}}},
		{Axes: []Axis{IntRange("x", 5, 1, 1)}},
		{Axes: []Axis{{Name: "x", Kind: KindIntRange, Min: 1, Max: 2}}}, // no step
		{Axes: []Axis{Pow2("x", 3, 8)}},
		{Axes: []Axis{Pow2("x", 0, 8)}},
		{Axes: []Axis{Choice("x")}},
		{Axes: []Axis{Choice("x", "a", "a")}},
		{Axes: []Axis{Choice("x", "")}},
		{Axes: []Axis{IntRange("x", 1, 2, 1), Choice("x", "a")}},
	}
	for i, sp := range bad {
		if err := sp.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid space %+v", i, sp)
		}
	}
	good := quadraticSpace()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid space rejected: %v", err)
	}
	if got, want := good.Size(), 16*3; got != want {
		t.Fatalf("Size = %d, want %d", got, want)
	}
}

func TestSpaceAccessors(t *testing.T) {
	sp := quadraticSpace()
	cfg := sp.Materialize(Point{2, 1})
	if n, err := sp.Int(cfg, "tile"); err != nil || n != 24 {
		t.Fatalf("Int(tile) = %d, %v; want 24", n, err)
	}
	if s, err := sp.Str(cfg, "mode"); err != nil || s != "b" {
		t.Fatalf("Str(mode) = %q, %v; want b", s, err)
	}
	if _, err := sp.Int(cfg, "mode"); err == nil {
		t.Error("Int on a choice axis did not error")
	}
	if _, err := sp.Str(cfg, "tile"); err == nil {
		t.Error("Str on a numeric axis did not error")
	}
	if _, err := sp.Int(cfg, "nope"); err == nil {
		t.Error("Int on a missing axis did not error")
	}
	if got, want := sp.Describe(cfg), "tile=24 mode=b"; got != want {
		t.Fatalf("Describe = %q, want %q", got, want)
	}
}

func TestGridFindsExactOptimum(t *testing.T) {
	sp := quadraticSpace()
	res, err := Tune(context.Background(), testReport(), sp, quadratic(), Options{
		Strategy: StrategyGrid, Budget: sp.Size(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != sp.Size() {
		t.Errorf("grid evaluated %d of %d points", res.Evaluations, sp.Size())
	}
	if res.BestScore != 0 {
		t.Errorf("best score %g, want 0", res.BestScore)
	}
	if got := res.Space.Describe(res.Best); got != "tile=48 mode=b" {
		t.Errorf("best config %q, want tile=48 mode=b", got)
	}
	if res.Schema != ResultSchema || res.Machine != "finisterrae" || res.Fingerprint != "test-fp" {
		t.Errorf("result header wrong: %+v", res)
	}
	if len(res.Trace) != res.Evaluations {
		t.Errorf("trace has %d entries for %d evaluations", len(res.Trace), res.Evaluations)
	}
}

func TestGridTruncatesAtBudget(t *testing.T) {
	sp := quadraticSpace()
	res, err := Tune(context.Background(), testReport(), sp, quadratic(), Options{
		Strategy: StrategyGrid, Budget: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != 10 {
		t.Errorf("evaluated %d, want budget 10", res.Evaluations)
	}
}

func TestRandomNeverRepeatsAndStaysInBounds(t *testing.T) {
	sp := quadraticSpace()
	res, err := Tune(context.Background(), testReport(), sp, quadratic(), Options{
		Strategy: StrategyRandom, Budget: 40, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, tp := range res.Trace {
		k := sp.Describe(tp.Config)
		if seen[k] {
			t.Fatalf("config %q evaluated twice", k)
		}
		seen[k] = true
		tile, _ := sp.Int(tp.Config, "tile")
		if tile < 8 || tile > 128 || tile%8 != 0 {
			t.Fatalf("config %q off the axis", k)
		}
	}
	if res.Evaluations < 30 {
		t.Errorf("random search found only %d distinct points in a 48-point space", res.Evaluations)
	}
}

func TestAnnealImprovesOnRandom(t *testing.T) {
	// On the quadratic bowl the refining strategies must land at (or
	// very near) the optimum within a modest budget.
	for _, strat := range []string{StrategyAnneal, StrategyAuto} {
		res, err := Tune(context.Background(), testReport(), quadraticSpace(), quadratic(), Options{
			Strategy: strat, Budget: 40, Seed: 3,
		})
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if res.BestScore > 64 {
			t.Errorf("%s: best score %g (config %s), expected near the optimum",
				strat, res.BestScore, res.Space.Describe(res.Best))
		}
	}
}

func TestAutoUsesGridWhenBudgetCovers(t *testing.T) {
	sp := Space{Axes: []Axis{IntRange("tile", 8, 40, 8)}}
	res, err := Tune(context.Background(), testReport(), sp, quadratic(), Options{Budget: 64})
	if err == nil {
		// Space lacks the "mode" axis the quadratic objective reads.
		t.Fatal("objective accepted a config missing its axis")
	}
	obj := Func("f", func(ctx context.Context, r *report.Report, s *Space, cfg Config) (float64, error) {
		n, err := s.Int(cfg, "tile")
		return float64(n), err
	})
	res, err = Tune(context.Background(), testReport(), sp, obj, Options{Budget: 64})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != sp.Size() {
		t.Errorf("auto on a small space evaluated %d of %d points", res.Evaluations, sp.Size())
	}
	if res.BestScore != 8 {
		t.Errorf("best %g, want 8", res.BestScore)
	}
}

// zeroProvenance strips the only nondeterministic fields.
func zeroProvenance(r *Result) { r.Provenance = Provenance{} }

func TestParallelismByteParity(t *testing.T) {
	var want []byte
	for _, par := range []int{1, 2, 4, 7} {
		res, err := Tune(context.Background(), testReport(), quadraticSpace(), quadratic(), Options{
			Strategy: StrategyAuto, Budget: 40, Seed: 11, Parallelism: par,
		})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		zeroProvenance(res)
		got, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		if string(got) != string(want) {
			t.Fatalf("parallelism %d: result diverged\n got: %s\nwant: %s", par, got, want)
		}
	}
}

func TestSeedChangesSearch(t *testing.T) {
	run := func(seed int64) *Result {
		res, err := Tune(context.Background(), testReport(), quadraticSpace(), quadratic(), Options{
			Strategy: StrategyRandom, Budget: 12, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(2)
	if reflect.DeepEqual(a.Trace, b.Trace) {
		t.Error("different seeds produced identical traces")
	}
}

func TestBudgetCountsDistinctConfigs(t *testing.T) {
	var calls atomic.Int64
	obj := Func("count", func(ctx context.Context, r *report.Report, sp *Space, cfg Config) (float64, error) {
		calls.Add(1)
		n, err := sp.Int(cfg, "tile")
		return float64(n), err
	})
	sp := Space{Axes: []Axis{IntRange("tile", 8, 256, 8)}}
	res, err := Tune(context.Background(), testReport(), sp, obj, Options{
		Strategy: StrategyAnneal, Budget: 20, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != int64(res.Evaluations) {
		t.Errorf("%d objective calls for %d evaluations: duplicates were re-evaluated", got, res.Evaluations)
	}
	if res.Evaluations > 20 {
		t.Errorf("evaluated %d points over budget 20", res.Evaluations)
	}
}

func TestTinySpaceTerminates(t *testing.T) {
	sp := Space{Axes: []Axis{Choice("mode", "a", "b")}}
	obj := Func("f", func(ctx context.Context, r *report.Report, s *Space, cfg Config) (float64, error) {
		m, err := s.Str(cfg, "mode")
		if m == "a" {
			return 1, err
		}
		return 2, err
	})
	for _, strat := range []string{StrategyGrid, StrategyRandom, StrategyAnneal, StrategyAuto} {
		res, err := Tune(context.Background(), testReport(), sp, obj, Options{Strategy: strat, Budget: 100})
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if res.Evaluations != 2 {
			t.Errorf("%s: evaluated %d of 2 points", strat, res.Evaluations)
		}
		if got := res.Space.Describe(res.Best); got != "mode=a" {
			t.Errorf("%s: best %q, want mode=a", strat, got)
		}
	}
}

func TestCancellationMidSearch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	obj := Func("cancel", func(ctx context.Context, r *report.Report, sp *Space, cfg Config) (float64, error) {
		if calls.Add(1) == 5 {
			cancel()
		}
		return 0, nil
	})
	sp := Space{Axes: []Axis{IntRange("tile", 1, 1000, 1)}}
	_, err := Tune(ctx, testReport(), sp, obj, Options{Strategy: StrategyRandom, Budget: 500})
	if err == nil {
		t.Fatal("cancelled tune returned no error")
	}
	if !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Fatalf("error %v does not surface the cancellation", err)
	}
}

func TestObjectiveErrorPropagates(t *testing.T) {
	boom := Func("boom", func(ctx context.Context, r *report.Report, sp *Space, cfg Config) (float64, error) {
		return 0, fmt.Errorf("kaboom")
	})
	sp := Space{Axes: []Axis{IntRange("x", 1, 4, 1)}}
	_, err := Tune(context.Background(), testReport(), sp, boom, Options{})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("objective error not surfaced: %v", err)
	}
}

func TestTuneArgumentValidation(t *testing.T) {
	sp := quadraticSpace()
	if _, err := Tune(context.Background(), nil, sp, quadratic(), Options{}); err == nil {
		t.Error("nil report accepted")
	}
	if _, err := Tune(context.Background(), testReport(), sp, nil, Options{}); err == nil {
		t.Error("nil objective accepted")
	}
	if _, err := Tune(context.Background(), testReport(), Space{}, quadratic(), Options{}); err == nil {
		t.Error("empty space accepted")
	}
	if _, err := Tune(context.Background(), testReport(), sp, quadratic(), Options{Strategy: "nope"}); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestObjectiveRegistry(t *testing.T) {
	names := ObjectiveNames()
	want := []string{ObjectiveAggregationModel, ObjectiveBcastModel, ObjectiveBcastSim, ObjectiveConcurrencyModel, ObjectiveTiledKernel}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("ObjectiveNames() = %v, want the sorted built-ins %v", names, want)
	}
	_, err := NewObjective(ObjectiveSpec{Name: "unknown"})
	const wantErr = `tune: unknown objective "unknown" (have [aggregation-model bcast-model bcast-sim concurrency-model tiled-kernel])`
	if err == nil || err.Error() != wantErr {
		t.Errorf("unknown objective: err = %v, want %s", err, wantErr)
	}
	if _, err := NewObjective(ObjectiveSpec{Name: ObjectiveBcastModel, Params: json.RawMessage(`{"ranks": 8, "bytes": 1024, "typo": 1}`)}); err == nil {
		t.Error("unknown params field accepted")
	}
	if _, err := NewObjective(ObjectiveSpec{Name: ObjectiveBcastModel, Params: json.RawMessage(`{"ranks": 1, "bytes": 1024}`)}); err == nil {
		t.Error("invalid ranks accepted")
	}
}

func TestBcastModelObjective(t *testing.T) {
	obj, err := NewObjective(ObjectiveSpec{
		Name:   ObjectiveBcastModel,
		Params: json.RawMessage(`{"layer": "fast", "ranks": 8, "bytes": 1024}`),
	})
	if err != nil {
		t.Fatal(err)
	}
	sp := Space{Axes: []Axis{Choice("algorithm", "flat", "binomial-tree")}}
	res, err := Tune(context.Background(), testReport(), sp, obj, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Both algorithms scored, and the winner agrees with ChooseBcast's
	// closed form for this layer (tree wins at 8 ranks on a
	// latency-bound layer).
	if res.Evaluations != 2 {
		t.Fatalf("evaluated %d algorithms, want 2", res.Evaluations)
	}
	best, err := res.BestValue("algorithm")
	if err != nil {
		t.Fatal(err)
	}
	if best.Str != "binomial-tree" {
		t.Errorf("best algorithm %q, want binomial-tree", best.Str)
	}
}

func TestBcastSimObjective(t *testing.T) {
	obj, err := NewObjective(ObjectiveSpec{
		Name:   ObjectiveBcastSim,
		Params: json.RawMessage(`{"ranks": 8, "bytes": 4096}`),
	})
	if err != nil {
		t.Fatal(err)
	}
	sp := Space{Axes: []Axis{
		Choice("algorithm", "flat", "binomial-tree"),
		Choice("placement", "packed", "spread"),
	}}
	res, err := Tune(context.Background(), testReport(), sp, obj, Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != 4 {
		t.Fatalf("evaluated %d combinations, want 4", res.Evaluations)
	}
	if res.BestScore <= 0 {
		t.Errorf("simulated makespan %g, want positive", res.BestScore)
	}
}

func TestAggregationModelObjective(t *testing.T) {
	obj, err := NewObjective(ObjectiveSpec{
		Name:   ObjectiveAggregationModel,
		Params: json.RawMessage(`{"layer": "fast", "bytes": 64, "messages": 32}`),
	})
	if err != nil {
		t.Fatal(err)
	}
	sp := Space{Axes: []Axis{Pow2("batch", 1, 32)}}
	res, err := Tune(context.Background(), testReport(), sp, obj, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != 6 {
		t.Fatalf("evaluated %d batch sizes, want 6", res.Evaluations)
	}
	// Aggregation must win on a latency-bound layer — but not
	// necessarily total aggregation: on the fixture, two concurrent
	// 1KB sends at the measured 1.1x slowdown edge out one 2KB send,
	// so the model's optimum is batch=16. Sending all 32 messages
	// separately is the worst choice by far.
	best, err := res.BestValue("batch")
	if err != nil {
		t.Fatal(err)
	}
	if best.Int != 16 {
		t.Errorf("best batch %d (score %g), want 16", best.Int, res.BestScore)
	}
	worst := res.Trace[0]
	for _, tp := range res.Trace {
		if tp.Score > worst.Score {
			worst = tp
		}
	}
	if b, _ := res.Space.Int(worst.Config, "batch"); b != 1 {
		t.Errorf("worst batch %d, want 1 (no aggregation)", b)
	}
}

func TestTiledKernelObjective(t *testing.T) {
	obj, err := NewObjective(ObjectiveSpec{
		Name:   ObjectiveTiledKernel,
		Params: json.RawMessage(`{"n": 64, "elem_bytes": 8}`),
	})
	if err != nil {
		t.Fatal(err)
	}
	sp := Space{Axes: []Axis{Pow2("tile", 4, 64)}}
	res, err := Tune(context.Background(), testReport(), sp, obj, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != 5 {
		t.Fatalf("evaluated %d tile sizes, want 5", res.Evaluations)
	}
	if res.BestScore <= 0 || math.IsInf(res.BestScore, 0) {
		t.Errorf("cycles per element %g out of range", res.BestScore)
	}
}

func TestConcurrencyModelObjective(t *testing.T) {
	obj, err := NewObjective(ObjectiveSpec{
		Name:   ObjectiveConcurrencyModel,
		Params: json.RawMessage(`{}`),
	})
	if err != nil {
		t.Fatal(err)
	}
	sp := Space{Axes: []Axis{IntRange("cores", 1, 4, 1)}}
	res, err := Tune(context.Background(), testReport(), sp, obj, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The fixture curve peaks at 3 cores (6.3 GB/s aggregate).
	best, err := res.BestValue("cores")
	if err != nil {
		t.Fatal(err)
	}
	if best.Int != 3 {
		t.Errorf("best cores %d, want 3", best.Int)
	}
	// With an efficiency floor of 60% of the 4 GB/s reference, 3 and 4
	// cores are disqualified and 2 wins.
	obj, err = NewObjective(ObjectiveSpec{
		Name:   ObjectiveConcurrencyModel,
		Params: json.RawMessage(`{"min_efficiency": 0.6}`),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err = Tune(context.Background(), testReport(), sp, obj, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if best, _ = res.BestValue("cores"); best.Int != 2 {
		t.Errorf("with efficiency floor: best cores %d, want 2", best.Int)
	}
}

func TestSimObjectivesRejectUnknownMachine(t *testing.T) {
	r := testReport()
	r.Machine = "mystery-box"
	obj, err := NewObjective(ObjectiveSpec{
		Name:   ObjectiveTiledKernel,
		Params: json.RawMessage(`{"n": 16}`),
	})
	if err != nil {
		t.Fatal(err)
	}
	sp := Space{Axes: []Axis{Pow2("tile", 4, 8)}}
	if _, err := Tune(context.Background(), r, sp, obj, Options{}); err == nil {
		t.Error("tiled kernel accepted a report with an unknown machine model")
	}
}
