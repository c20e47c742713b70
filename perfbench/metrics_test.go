package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkFileMatchesRegistry keeps BENCHMARK.json, which declares
// the metrics and workloads, in step with what the benchmark reports.
func TestBenchmarkFileMatchesRegistry(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(file.Workloads), len(workloads))
	}
	for i, w := range file.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: declared %q, defined %q", i, w.Name, workloads[i].name)
		}
	}
	compare := func(kind string, declared []struct{ Name, Unit, Better string }, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Fatalf("%s: %d metrics declared, %d reported", kind, len(declared), len(defs))
		}
		for i, d := range defs {
			if got := declared[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
				t.Errorf("%s %d: declared %+v, reported %+v", kind, i, got, d)
			}
		}
	}
	compare("end_to_end", file.EndToEnd, endToEndDefs)
	compare("per_layer", file.PerLayer, perLayerDefs)
	for _, d := range perLayerDefs {
		if d.moves == "" {
			t.Errorf("per-layer metric %s names no end-to-end metric it moves", d.name)
		}
	}
}
