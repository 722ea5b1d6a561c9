package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0, 1}, {0.2, 1}, {0.5, 3}, {0.75, 4}, {0.9, 5}, {1, 5}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("quantile sorted its input in place: %v", xs)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
}

func TestCheckTailNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		ok   bool
		desc string
	}{
		{40, 0.75, true, "rank 30 of 40 leaves exactly ten"},
		{39, 0.75, false, "rank 30 of 39 leaves nine"},
		{100, 0.9, true, "ten beyond p90 of 100"},
		{99, 0.9, false, "nine beyond p90 of 99"},
		{1000, 0.99, true, "ten beyond p99 of 1000"},
		{200, 0.5, false, "the median is not a tail"},
		{200, 1, false, "the maximum has nothing beyond it"},
	} {
		if err := checkTail(c.n, c.q); (err == nil) != c.ok {
			t.Errorf("%s: checkTail(%d, %v) = %v, want ok %v", c.desc, c.n, c.q, err, c.ok)
		}
	}
}

func TestCheckModes(t *testing.T) {
	fill := func(n int, v float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = v + float64(i)/1000
		}
		return xs
	}
	// Two thirds hits: the median and p90 sit well inside their modes.
	if err := checkModes(fill(200, 1), fill(100, 50), 0.5, 0.9); err != nil {
		t.Errorf("two-thirds hits: %v", err)
	}
	// 55% hits puts the median within 0.1 of the boundary.
	if err := checkModes(fill(110, 1), fill(90, 50), 0.5, 0.9); err == nil || !strings.Contains(err.Error(), "median") {
		t.Errorf("55%% hits: got %v, want a median boundary error", err)
	}
	// 85% hits puts p90 within 0.1 of the boundary.
	if err := checkModes(fill(170, 1), fill(30, 50), 0.5, 0.9); err == nil || !strings.Contains(err.Error(), "tail") {
		t.Errorf("85%% hits: got %v, want a tail boundary error", err)
	}
	// Hits as slow as misses are not two modes.
	if err := checkModes(fill(200, 50), fill(100, 40), 0.5, 0.9); err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Errorf("overlapping modes: got %v, want an overlap error", err)
	}
	if err := checkModes(fill(10, 1), nil, 0.5, 0.9); err == nil {
		t.Error("no misses: want an error")
	}
}

// TestMetricsMatchBenchmarkJSON keeps the program's metric names and units
// in step with the BENCHMARK.json at the repository root.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", what, len(got), len(want))
			return
		}
		for i, m := range got {
			if m.name != want[i].Name || m.unit != want[i].Unit {
				t.Errorf("%s %d: program %s [%s], BENCHMARK.json %s [%s]", what, i, m.name, m.unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, b.EndToEnd)
	same("per_layer", perLayer, b.PerLayer)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
}
