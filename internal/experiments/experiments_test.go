package experiments

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

var quick = Opt{Seed: 1, Quick: true}

func TestIDsStableAndComplete(t *testing.T) {
	ids := IDs()
	want := []string{
		"ablation1", "ablation2", "fig10a", "fig10b", "fig10c", "fig10d",
		"fig2a", "fig2b", "fig8a", "fig8b", "fig9a", "fig9b", "iva", "table1",
	}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Errorf("ids[%d] = %s, want %s", i, ids[i], want[i])
		}
	}
	for _, id := range ids {
		if Title(id) == "" {
			t.Errorf("no title for %s", id)
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run(context.Background(), "fig99", quick); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestFig2Shapes(t *testing.T) {
	res, err := Run(context.Background(), "fig2a", quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("series = %d", len(res.Series))
	}
	for _, s := range res.Series {
		if len(s.X) < 10 || len(s.X) != len(s.Y) {
			t.Errorf("%s: %d points", s.Name, len(s.X))
		}
		// Cycles rise overall: last value far above first.
		if s.Y[len(s.Y)-1] < 5*s.Y[0] {
			t.Errorf("%s: no rise (%.1f -> %.1f)", s.Name, s.Y[0], s.Y[len(s.Y)-1])
		}
	}

	grad, err := Run(context.Background(), "fig2b", quick)
	if err != nil {
		t.Fatal(err)
	}
	// First peaks at the L1 sizes: 16 KB for Dempsey, 32 KB for
	// Dunnington.
	wantPeak := map[string]float64{"dempsey": 16 << 10, "dunnington": 32 << 10}
	for _, s := range grad.Series {
		firstPeak := 0.0
		for i, g := range s.Y {
			if g > 2 {
				firstPeak = s.X[i]
				break
			}
		}
		if firstPeak != wantPeak[s.Name] {
			t.Errorf("%s: first gradient peak at %.0f, want %.0f", s.Name, firstPeak, wantPeak[s.Name])
		}
	}
}

func TestSectionIVAAllMatch(t *testing.T) {
	if testing.Short() {
		t.Skip("full detection on four machines")
	}
	res, err := Run(context.Background(), "iva", Opt{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(res.Text, "MISMATCH") {
		t.Errorf("mismatching estimates:\n%s", res.Text)
	}
	found := false
	for _, n := range res.Notes {
		if strings.Contains(n, "10 of 10") {
			found = true
		}
	}
	if !found {
		t.Errorf("notes = %v, want 10/10", res.Notes)
	}
}

func TestFig8Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("pair sweeps")
	}
	a, err := Run(context.Background(), "fig8a", quick)
	if err != nil {
		t.Fatal(err)
	}
	// Dunnington: L2 series flags exactly core 12; L3 flags 5 partners.
	for _, s := range a.Series {
		above := 0
		for _, y := range s.Y {
			if y > 2 {
				above++
			}
		}
		switch s.Name {
		case "L1":
			if above != 0 {
				t.Errorf("L1 pairs above 2: %d", above)
			}
		case "L2":
			if above != 1 {
				t.Errorf("L2 pairs above 2: %d, want 1 (core 12)", above)
			}
		case "L3":
			if above != 5 {
				t.Errorf("L3 pairs above 2: %d, want 5", above)
			}
		}
	}
	b, err := Run(context.Background(), "fig8b", quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range b.Series {
		for i, y := range s.Y {
			if y > 2 {
				t.Errorf("finisterrae %s partner %.0f ratio %.2f > 2", s.Name, s.X[i], y)
			}
		}
	}
}

func TestFig9Shapes(t *testing.T) {
	res, err := Run(context.Background(), "fig9a", quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Series {
		if s.Name != "finisterrae" {
			continue
		}
		// Partners 1-3 (bus) lowest, 4-7 (cell) intermediate, 8+ at ref.
		if !(s.Y[0] < s.Y[3] && s.Y[3] < s.Y[7]) {
			t.Errorf("finisterrae hierarchy broken: %v", s.Y)
		}
	}
	scal, err := Run(context.Background(), "fig9b", quick)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, s := range scal.Series {
		names[s.Name] = true
	}
	for _, want := range []string{"dunnington", "finisterrae bus", "finisterrae cell"} {
		if !names[want] {
			t.Errorf("missing series %q in %v", want, names)
		}
	}
}

func TestFig10Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("comm sweeps")
	}
	a, err := Run(context.Background(), "fig10a", quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range a.Series {
		if s.Name != "finisterrae" {
			continue
		}
		// Destinations 1..15 intra-node, 16..31 inter-node: the
		// inter-node half must be clearly slower.
		intra, inter := s.Y[0], s.Y[20]
		if inter/intra < 1.5 {
			t.Errorf("inter/intra = %.2f", inter/intra)
		}
	}
	b, err := Run(context.Background(), "fig10b", quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range b.Series {
		last := s.Y[len(s.Y)-1]
		if last < 2 {
			t.Errorf("%s: slowdown %.1f, want visible contention", s.Name, last)
		}
	}
	c, err := Run(context.Background(), "fig10c", quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Series) != 3 {
		t.Errorf("fig10c series = %d, want 3 layers", len(c.Series))
	}
	d, err := Run(context.Background(), "fig10d", quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Series) != 2 {
		t.Errorf("fig10d series = %d, want 2 layers", len(d.Series))
	}
}

func TestTable1Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("full suites")
	}
	res, err := Run(context.Background(), "table1", quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"dunnington", "finisterrae", "cache-size", "total"} {
		if !strings.Contains(res.Text, want) {
			t.Errorf("table1 missing %q:\n%s", want, res.Text)
		}
	}
}

func TestAblations(t *testing.T) {
	res, err := Run(context.Background(), "ablation1", quick)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "hidden by prefetcher") ||
		!strings.Contains(res.Text, "visible") {
		t.Errorf("ablation1 table:\n%s", res.Text)
	}
	res2, err := Run(context.Background(), "ablation2", quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Notes) == 0 {
		t.Error("ablation2 found no case where the probabilistic estimator beats the naive one")
	}
}

func TestRunAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("all experiments")
	}
	// Fan the generators out over the scheduler; the results must
	// still come back complete and in id order, and identical to a
	// one-worker run.
	runAll := func(parallelism int) []*Result {
		opt := quick
		opt.Parallelism = parallelism
		results, err := RunAll(context.Background(), opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != len(IDs()) {
			t.Fatalf("parallelism %d: results = %d, want %d", parallelism, len(results), len(IDs()))
		}
		for i, res := range results {
			if res.ID != IDs()[i] {
				t.Errorf("parallelism %d: result %d = %s, want %s (id order)", parallelism, i, res.ID, IDs()[i])
			}
		}
		return results
	}
	results := runAll(4)
	for _, res := range results {
		if res.ID == "" || res.Title == "" {
			t.Errorf("unlabelled result: %+v", res)
		}
		if len(res.Series) == 0 && res.Text == "" {
			t.Errorf("%s: no series and no table", res.ID)
		}
		if len(res.Notes) == 0 {
			t.Errorf("%s: no notes", res.ID)
		}
	}

	for i, seq := range runAll(1) {
		par := *results[i]
		if seq.ID == "table1" {
			// table1's wall column is host time.
			par.Text = seq.Text
		}
		if !reflect.DeepEqual(seq, &par) {
			t.Errorf("%s: parallelism 4 result diverges from parallelism 1", seq.ID)
		}
	}
}
