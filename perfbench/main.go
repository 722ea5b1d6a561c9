// Command perfbench is the repository's benchmark. It runs one workload
// against the sirum library or an in-process sirumr/sirumd cluster, checks
// every answer, and prints the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run) as the last line of standard output. See
// README.md for the workloads, the metrics and how to run it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of the untraced run, as a user of the system
// sees them.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of the traced run, grouped by the module whose
// work they measure. Every workload reports all of them; a layer its
// requests never reach reads 0.
var perLayer = []metricDef{
	// internal/cube
	{"miner.ancestor_generation_ms", "ms"},
	{"cube.pairs_emitted", "count"},
	{"cube.candidates_per_pair", "ratio"},
	// internal/candgen
	{"miner.candidate_pruning_ms", "ms"},
	{"candgen.lca_comparisons", "count"},
	{"candgen.candidates", "count"},
	// internal/maxent
	{"miner.gain_computation_ms", "ms"},
	{"miner.iterative_scaling_ms", "ms"},
	{"maxent.scaling_loops", "count"},
	// internal/miner
	{"miner.rule_selection_ms", "ms"},
	{"miner.estimate_writeback_ms", "ms"},
	{"miner.other_ms", "ms"},
	{"miner.op_ms", "ms"},
	// internal/engine and the Go runtime
	{"engine.wall_ms", "ms"},
	{"engine.tasks", "count"},
	{"engine.stages", "count"},
	{"engine.shuffle_records", "count"},
	{"engine.scratch_reuse_ratio", "ratio"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.bytes_per_op", "bytes"},
	{"runtime.gc_cycles_per_op", "count"},
	// sirum root, internal/dataset, internal/datagen
	{"setup.generate_s", "s"},
	{"setup.prepare_s", "s"},
	{"setup.warmup_s", "s"},
	{"append.ms", "ms"},
	{"append.remine_ratio", "ratio"},
	// internal/server
	{"server.hit_ms", "ms"},
	{"server.self_ms", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.response_bytes", "bytes"},
	// internal/router
	{"router.hop_ms", "ms"},
	// the client side of the HTTP hop
	{"client.miss_ms", "ms"},
	{"client.transport_ms", "ms"},
	// the traced run itself
	{"trace.p50_ms", "ms"},
	{"trace.ops", "count"},
}

// processes is how many processes one run pools, each with an equal share
// of the window. Run to run, a process's speed differs by several percent
// (memory placement, scheduling, host neighbours); pooling the samples of
// several processes averages that out, where a longer window in one
// process would not.
const processes = 5

// config is one process's settings.
type config struct {
	seed    int64
	seconds time.Duration // this process's timed window
	trace   bool
}

// report is what one process measured, before it is turned into metrics.
// A child process prints it as JSON for the parent to pool.
type report struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Reads     []float64          `json:"reads_ms"`
	Writes    []float64          `json:"writes_ms"`
	TailQ     float64            `json:"tail_quantile"` // the workload's fixed tail quantile
	Ops       int                `json:"ops"`
	WindowS   float64            `json:"window_s"`
	SetupS    float64            `json:"setup_s"`
	PeakRSSMB float64            `json:"peak_rss_mb"`
	Layers    map[string]float64 `json:"layers"`
	Cond      map[string]any     `json:"conditions"` // pinned conditions, printed with the result
}

// fail counts one failed operation and says why on standard error.
func (r *report) fail(format string, args ...any) {
	r.Failed++
	if r.Failed <= 20 {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	}
}

// check counts a failed operation when err is not nil.
func (r *report) check(err error) {
	if err != nil {
		r.fail("%v", err)
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

var workloads = map[string]func(config) (*report, error){
	"explore-cube": runExploreCube,
	"mine-wide":    runMineWide,
	"serve-append": runServeAppend,
}

func main() {
	workload := flag.String("workload", "", "explore-cube, mine-wide or serve-append")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 25, "length of the run's timed window in seconds, shared among its processes")
	trace := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
	child := flag.Int("child", -1, "run as process `k` of a run and print its raw report (used by the run itself)")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || *child > processes {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload explore-cube|mine-wide|serve-append --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if *child >= 0 {
		// Every process generates the same inputs from the run's seed, so
		// whichever process is left out, the pooled counts are the same.
		cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second / processes, trace: *trace == 1}
		rep, err := run(cfg)
		if err == nil {
			rep.PeakRSSMB, err = peakRSSMB()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
			os.Exit(1)
		}
		if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
			os.Exit(1)
		}
		return
	}

	// One process more than the run pools is started, and the one during
	// which the hypervisor gave the largest share of the host's CPU time
	// to other machines is left out: its times measure the host, not the
	// program. Its checks still count.
	type process struct {
		rep   *report
		steal float64
	}
	var children []process
	for k := 0; k <= processes; k++ {
		rep, steal, err := runChild(k)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: process %d: %v\n", *workload, k, err)
			os.Exit(1)
		}
		children = append(children, process{rep, steal})
	}
	sort.SliceStable(children, func(a, b int) bool { return children[a].steal < children[b].steal })
	dropped := children[processes]
	var reps []*report
	var steal, setups, rss []float64
	for _, c := range children[:processes] {
		reps = append(reps, c.rep)
		steal = append(steal, c.steal)
		setups = append(setups, c.rep.SetupS)
		rss = append(rss, c.rep.PeakRSSMB)
	}
	rep := pool(reps)
	rep.Failed += dropped.rep.Failed
	rep.Attempted += dropped.rep.Attempted
	if err := checkTail(len(rep.Reads), rep.TailQ); err != nil {
		rep.fail("%s: %v", *workload, err)
	}

	cond := map[string]any{
		"workload":      *workload,
		"seed":          *seed,
		"seconds":       *seconds,
		"trace":         *trace == 1,
		"processes":     processes,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"partitions":    4 * runtime.NumCPU(), // the native backend's default
		"go":            runtime.Version(),
		"tail_quantile": rep.TailQ,
		"reads":         len(rep.Reads),
		"writes":        len(rep.Writes),
		"ops":           rep.Ops,
		"window_s":      rep.WindowS,
		"steal":         steal,
		"dropped_steal": dropped.steal,
	}
	for k, v := range rep.Cond {
		cond[k] = v
	}

	out := resultOut{Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metricOut{}}
	values := map[string]float64{
		"ops_per_s":    float64(rep.Ops) / rep.WindowS,
		"p50_ms":       quantile(rep.Reads, 0.5),
		"tail_ms":      quantile(rep.Reads, rep.TailQ),
		"write_p50_ms": quantile(rep.Writes, 0.5),
		"setup_s":      quantile(setups, 0.5),
		"peak_rss_mb":  mean(rss),
	}
	metrics := endToEnd
	if *trace == 1 {
		values = rep.Layers
		values["trace.p50_ms"] = quantile(rep.Reads, 0.5)
		metrics = perLayer
	}
	for _, m := range metrics {
		out.Metrics[m.name] = metricOut{values[m.name], m.unit}
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(cond); err != nil {
		os.Exit(1)
	}
	if err := enc.Encode(out); err != nil {
		os.Exit(1)
	}
	if !out.Correct {
		os.Exit(1)
	}
}

// runChild runs process k of this run: the same binary and flags plus
// --child k. Its report is the last line of its standard output; its
// standard error passes through. share is the part of the host's CPU time
// that the hypervisor gave to other machines while the process ran.
func runChild(k int) (rep *report, share float64, err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	steal0, total0, err := cpuTicks()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(exe, append(os.Args[1:], "--child", strconv.Itoa(k))...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, 0, err
	}
	steal1, total1, err := cpuTicks()
	if err != nil {
		return nil, 0, err
	}
	if total1 > total0 {
		share = float64(steal1-steal0) / float64(total1-total0)
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	rep = &report{}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), rep); err != nil {
		return nil, 0, fmt.Errorf("reading its report: %w", err)
	}
	return rep, share, nil
}

// cpuTicks returns the host's cumulative steal time and total CPU time, in
// clock ticks, from the cpu line of /proc/stat.
func cpuTicks() (steal, total int64, err error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, fmt.Errorf("cpu ticks: %w", err)
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("cpu ticks: unexpected /proc/stat line %q", line)
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("cpu ticks: %w", err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// pool merges the processes' reports: samples and counts are concatenated
// or summed, per-layer metrics (per-operation means over the same number
// of cycles in every process) are averaged, except trace.ops, which is
// summed. The first process's conditions stand for all.
func pool(reps []*report) *report {
	out := &report{TailQ: reps[0].TailQ, Layers: map[string]float64{}, Cond: reps[0].Cond}
	for _, r := range reps {
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		out.Reads = append(out.Reads, r.Reads...)
		out.Writes = append(out.Writes, r.Writes...)
		out.Ops += r.Ops
		out.WindowS += r.WindowS
		for k, v := range r.Layers {
			if k != "trace.ops" {
				v /= float64(len(reps))
			}
			out.Layers[k] += v
		}
	}
	return out
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
