package main

import (
	"runtime"
	"time"

	"sirum"
)

// phaseMetrics maps the program's per-query phase names to the per-layer
// metrics they feed. rule_generation (the parent of pruning, ancestor
// generation and gain) and data_load are left out, so the phases below
// never overlap and miner.other_ms is what remains of the query.
var phaseMetrics = map[string]string{
	"candidate_pruning":   "miner.candidate_pruning_ms",
	"ancestor_generation": "miner.ancestor_generation_ms",
	"gain_computation":    "miner.gain_computation_ms",
	"iterative_scaling":   "miner.iterative_scaling_ms",
	"rule_selection":      "miner.rule_selection_ms",
	"estimate_writeback":  "miner.estimate_writeback_ms",
}

// counterMetrics maps the program's per-query counters to per-layer metrics.
var counterMetrics = map[string]string{
	"pairs_emitted":   "cube.pairs_emitted",
	"lca_comparisons": "candgen.lca_comparisons",
	"candidates":      "candgen.candidates",
	"scaling_loops":   "maxent.scaling_loops",
	"tasks":           "engine.tasks",
	"stages":          "engine.stages",
	"shuffle_records": "engine.shuffle_records",
}

// queryTotals sums the per-query metrics of computed queries.
type queryTotals struct {
	n        int
	op, wall time.Duration
	phases   map[string]time.Duration
	counters map[string]int64
}

// add records one computed query: op is its span as the caller timed it,
// wall the engine time the program reported, m its metrics snapshot.
func (t *queryTotals) add(op, wall time.Duration, m sirum.QueryMetrics) {
	t.merge(queryTotals{n: 1, op: op, wall: wall, phases: m.Phases, counters: m.Counters})
}

// merge adds o's totals to t.
func (t *queryTotals) merge(o queryTotals) {
	if t.phases == nil {
		t.phases = map[string]time.Duration{}
		t.counters = map[string]int64{}
	}
	t.n += o.n
	t.op += o.op
	t.wall += o.wall
	for k, d := range o.phases {
		t.phases[k] += d
	}
	for k, v := range o.counters {
		t.counters[k] += v
	}
}

// into writes the per-query means into layers.
func (t *queryTotals) into(layers map[string]float64) {
	if t.n == 0 {
		return
	}
	n := float64(t.n)
	phases := time.Duration(0)
	for name, metric := range phaseMetrics {
		phases += t.phases[name]
		layers[metric] = ms(t.phases[name]) / n
	}
	layers["miner.op_ms"] = ms(t.op) / n
	layers["miner.other_ms"] = ms(t.op-phases) / n
	layers["engine.wall_ms"] = ms(t.wall) / n
	for name, metric := range counterMetrics {
		layers[metric] = float64(t.counters[name]) / n
	}
	if p := t.counters["pairs_emitted"]; p > 0 {
		layers["cube.candidates_per_pair"] = float64(t.counters["candidates"]) / float64(p)
	}
	if b := t.counters["scratch_borrows"]; b > 0 {
		layers["engine.scratch_reuse_ratio"] = float64(t.counters["scratch_reuses"]) / float64(b)
	}
}

// memInto writes the process-wide allocation and GC deltas between two
// MemStats readings, per operation, into layers.
func memInto(layers map[string]float64, before, after *runtime.MemStats, ops int) {
	if ops == 0 {
		return
	}
	n := float64(ops)
	layers["runtime.allocs_per_op"] = float64(after.Mallocs-before.Mallocs) / n
	layers["runtime.bytes_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / n
	layers["runtime.gc_cycles_per_op"] = float64(after.NumGC-before.NumGC) / n
}
