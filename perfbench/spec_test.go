package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json, spec.json and the
// metrics the benchmark prints in step: every workload and metric named
// in one is named in the others, and every per-layer metric has a row
// in the prediction table.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	var sp struct {
		Workloads   map[string]json.RawMessage
		Predictions []struct {
			Layer      []string
			On, FlatOn []string
			Moves      []string
		}
	}
	if err := json.Unmarshal(specJSON, &sp); err != nil {
		t.Fatal(err)
	}

	var specNames, benchNames []string
	for name := range sp.Workloads {
		specNames = append(specNames, name)
	}
	for _, w := range bench.Workloads {
		benchNames = append(benchNames, w.Name)
	}
	sort.Strings(specNames)
	sort.Strings(benchNames)
	if len(specNames) != len(benchNames) {
		t.Fatalf("workloads: spec.json %v, BENCHMARK.json %v", specNames, benchNames)
	}
	for i := range specNames {
		if specNames[i] != benchNames[i] {
			t.Fatalf("workloads: spec.json %v, BENCHMARK.json %v", specNames, benchNames)
		}
	}

	code := perLayer()
	if len(code) != len(bench.PerLayer) {
		t.Fatalf("per_layer: code prints %d metrics, BENCHMARK.json lists %d", len(code), len(bench.PerLayer))
	}
	predicted := map[string]bool{}
	for _, p := range sp.Predictions {
		for _, l := range p.Layer {
			predicted[l] = true
		}
	}
	for i, m := range bench.PerLayer {
		if m.Name != code[i][0] || m.Unit != code[i][1] {
			t.Errorf("per_layer[%d]: BENCHMARK.json %s/%s, code %s/%s", i, m.Name, m.Unit, code[i][0], code[i][1])
		}
		if !predicted[m.Name] {
			t.Errorf("per-layer metric %s has no prediction row in spec.json", m.Name)
		}
	}

	// The end-to-end metrics are the keys endToEnd reports.
	m := &measurement{window: sliceLen, st: newWorkerStats()}
	for i := 0; i < 1000; i++ {
		m.st.read(0, 1)
		m.st.write(0)
	}
	m.start = time.Unix(0, m.st.ends[0])
	m.samples = []sample{{at: m.start}}
	e2e, err := m.endToEnd(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(e2e) != len(bench.EndToEnd) {
		t.Fatalf("end_to_end: code reports %d metrics, BENCHMARK.json lists %d", len(e2e), len(bench.EndToEnd))
	}
	for _, want := range bench.EndToEnd {
		got, ok := e2e[want.Name]
		if !ok || got.Unit != want.Unit {
			t.Errorf("end-to-end metric %s/%s: code reports %+v", want.Name, want.Unit, got)
		}
	}
}
