package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONListsTheReportedMetrics keeps BENCHMARK.json and the
// metrics the benchmark prints in step.
func TestBenchmarkJSONListsTheReportedMetrics(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	if len(b.EndToEnd) != len(e2eNames) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark reports %d", len(b.EndToEnd), len(e2eNames))
	}
	for i, m := range b.EndToEnd {
		if m.Name != e2eNames[i].name || m.Unit != e2eNames[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, benchmark reports %s %s", i, m.Name, m.Unit, e2eNames[i].name, e2eNames[i].unit)
		}
	}
	if len(b.PerLayer) != len(layerNames) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark reports %d", len(b.PerLayer), len(layerNames))
	}
	for i, m := range b.PerLayer {
		if m.Name != layerNames[i].name || m.Unit != layerNames[i].unit {
			t.Errorf("per_layer[%d] = %s %s, benchmark reports %s %s", i, m.Name, m.Unit, layerNames[i].name, layerNames[i].unit)
		}
	}
}
