package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// benchmarkJSON is the part of the repository's BENCHMARK.json the
// benchmark's own code must agree with.
type benchmarkJSON struct {
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	Workloads []struct{ Name string }               `json:"workloads"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesLayerTable(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.PerLayer) != len(layerTable) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, layerTable %d", len(b.PerLayer), len(layerTable))
	}
	for i, l := range layerTable {
		got := b.PerLayer[i]
		if got.Name != l.name || got.Unit != l.unit || got.Better != l.better {
			t.Errorf("per_layer[%d] = %+v, layerTable has %s %s %s", i, got, l.name, l.unit, l.better)
		}
	}
}

func TestBenchmarkJSONMatchesEndToEnd(t *testing.T) {
	b := loadBenchmarkJSON(t)
	e2e := endToEnd(&outcome{})
	var names []string
	for _, m := range b.EndToEnd {
		names = append(names, m.Name)
		s, ok := e2e[m.Name]
		if !ok {
			t.Errorf("BENCHMARK.json metric %s is not produced", m.Name)
		} else if s.unit != m.Unit {
			t.Errorf("%s: unit %s, BENCHMARK.json says %s", m.Name, s.unit, m.Unit)
		}
	}
	for name := range e2e {
		if !slices.Contains(names, name) {
			t.Errorf("end-to-end metric %s is missing from BENCHMARK.json", name)
		}
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark implements %d", len(b.Workloads), len(workloads))
	}
}
