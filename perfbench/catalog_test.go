package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestCatalogMatchesBenchmarkJSON keeps the metric lists the benchmark
// prints in step with the ones BENCHMARK.json declares.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		defs []metricDef
		spec []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, spec.EndToEnd}, {"per_layer", perLayer, spec.PerLayer}} {
		if len(c.defs) != len(c.spec) {
			t.Errorf("%s: benchmark prints %d metrics, BENCHMARK.json declares %d", c.what, len(c.defs), len(c.spec))
			continue
		}
		for i, d := range c.defs {
			if d.name != c.spec[i].Name || d.unit != c.spec[i].Unit {
				t.Errorf("%s[%d]: benchmark prints %s (%s), BENCHMARK.json declares %s (%s)",
					c.what, i, d.name, d.unit, c.spec[i].Name, c.spec[i].Unit)
			}
		}
	}
	want := []string{"publish", "serve", "coord"}
	if len(spec.Workloads) != len(want) {
		t.Fatalf("BENCHMARK.json declares %d workloads, want %v", len(spec.Workloads), want)
	}
	for i, w := range spec.Workloads {
		if w.Name != want[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, want[i])
		}
	}
}

func TestCoveredUnionOfChildren(t *testing.T) {
	// Children [2,5] and [4,8] overlap inside the parent [0,10]; [9,12]
	// sticks out past its end.
	got := covered(0, 10, [][2]int64{{4, 8}, {2, 5}, {9, 12}})
	if got != 7 {
		t.Errorf("covered = %d, want 7", got)
	}
	tr := NewTracer()
	p := tr.Begin("parent", -1, -1)
	c := tr.Begin("child", p, -1)
	tr.End(c)
	tr.End(p)
	self := tr.SelfTimes("parent")
	if len(self) != 1 || self[0] != tr.Span(p).Dur()-tr.Span(c).Dur() {
		t.Errorf("self time %v, want parent minus child", self)
	}
}
