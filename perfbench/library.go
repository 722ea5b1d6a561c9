package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"sirum"
	"sirum/internal/rule"
)

// The library workloads load their data the way a streaming user does:
// the base rows through Prepare, then libAppends batches of libBatchRows
// rows through Prepared.Append. Those appends are the library workloads'
// writes (write_p50_ms) and part of their set-up.
const (
	libAppends   = 16
	libBatchRows = 10
)

// libWorkload is one closed loop of a single caller against a Prepared
// session: a fixed cycle of queries repeated until the window has elapsed.
type libWorkload struct {
	name      string
	rows      int     // total rows, base plus appended batches
	minCycles int     // cycles every run completes; the traced run's per-layer metrics cover exactly these
	tailQ     float64 // fixed tail quantile; see README.md
	inputs    func(seed int64, rows int) (base *sirum.Dataset, batches []*sirum.Dataset, err error)
	prepare   sirum.PrepareOptions
	appendOpt sirum.Options
	cycle     func(seed int64) []libOp
	wantPack  bool // whether the schema's keys fit the packed 64-bit path
}

// libOp is one query of the cycle. key names the query for the answer
// check: every run of the same key must give the same answer.
type libOp struct {
	key string
	run func(p *sirum.Prepared) (queryOut, error)
}

// queryOut is what one query returned.
type queryOut struct {
	ans     answer
	metrics sirum.QueryMetrics
	wall    time.Duration
}

// exploreCube repeats one identical exploration on prepared income data:
// a 31-bit packed schema whose cost is ancestor generation over the packed
// cube tables. No candidate pruning, no gain computation, no HTTP.
var exploreCube = libWorkload{
	name:      "explore-cube",
	rows:      3000,
	minCycles: 10,
	tailQ:     0.75,
	inputs:    incomeBatches,
	appendOpt: sirum.Options{K: 3},
	cycle: func(int64) []libOp {
		return []libOp{{key: "explore", run: func(p *sirum.Prepared) (queryOut, error) {
			res, err := p.Explore(sirum.ExploreOptions{K: 3, GroupBys: 1})
			if err != nil {
				return queryOut{}, err
			}
			ans := answerOf(res.Result)
			for _, r := range res.Prior {
				ans.add(r)
			}
			return queryOut{ans, res.Result.Metrics, res.Result.WallTime}, nil
		}}}
	},
	wantPack: true,
}

// mineWide rotates sampled mining queries over a schema too wide for packed
// keys, so candidates take the string-key cube path.
var mineWide = libWorkload{
	name:      "mine-wide",
	rows:      5000,
	minCycles: 4,
	tailQ:     0.9,
	inputs:    wideBatches,
	prepare:   sirum.PrepareOptions{SampleSize: 16},
	appendOpt: sirum.Options{K: 3, SampleSize: 16},
	cycle: func(seed int64) []libOp {
		ops := make([]libOp, 8)
		for i := range ops {
			// Query seeds differ from the prepared sample's seed (1), so
			// every query draws and indexes its own sample.
			qs := 2 + int64(i) + 10*(seed&0xffff)
			ops[i] = libOp{key: fmt.Sprintf("mine seed %d", qs), run: func(p *sirum.Prepared) (queryOut, error) {
				res, err := p.Mine(sirum.Options{K: 3, SampleSize: 16, Seed: qs})
				if err != nil {
					return queryOut{}, err
				}
				return queryOut{answerOf(res), res.Metrics, res.WallTime}, nil
			}}
		}
		return ops
	},
	wantPack: false,
}

func runExploreCube(cfg config) (*report, error) { return exploreCube.run(cfg) }
func runMineWide(cfg config) (*report, error)    { return mineWide.run(cfg) }

// libSession is a prepared session and what setting it up took.
type libSession struct {
	p                 *sirum.Prepared
	data              *sirum.Dataset // the base rows, for the schema checks
	generate, prepare time.Duration
	remined           int // set-up appends that re-mined
}

func (w libWorkload) run(cfg config) (*report, error) {
	rep := &report{TailQ: w.tailQ, Layers: map[string]float64{}}
	cycle := w.cycle(cfg.seed)
	refs := map[string]answer{}
	checkAnswer := func(key string, a answer) {
		if ref, ok := refs[key]; !ok {
			refs[key] = a
		} else if !ref.equal(a) {
			rep.fail("%s: answer to %q differs from its first run", w.name, key)
		}
	}

	// Set-up ends with an untimed warm-up query.
	start := time.Now()
	sess, err := w.setup(cfg.seed, rep)
	if err != nil {
		return nil, err
	}
	defer sess.p.Close()
	t := time.Now()
	out, err := cycle[0].run(sess.p)
	warm := time.Since(t)
	rep.Attempted++
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	checkAnswer(cycle[0].key, out.ans)
	rep.SetupS = time.Since(start).Seconds()

	// The timed window: whole cycles until it has elapsed and minCycles
	// are done. Per-layer metrics cover the first minCycles cycles.
	var tot queryTotals
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	start = time.Now()
	deadline := start.Add(cfg.seconds)
	for c := 0; c < w.minCycles || time.Now().Before(deadline); c++ {
		for _, op := range cycle {
			t0 := time.Now()
			out, err := op.run(sess.p)
			d := time.Since(t0)
			rep.Attempted++
			rep.Ops++
			if err != nil {
				rep.fail("%s: %s: %v", w.name, op.key, err)
				continue
			}
			rep.Reads = append(rep.Reads, ms(d))
			checkAnswer(op.key, out.ans)
			if c < w.minCycles {
				tot.add(d, out.wall, out.metrics)
			}
		}
	}
	rep.WindowS = time.Since(start).Seconds()
	runtime.ReadMemStats(&mem1)

	// Path guards, after the window so they cost set-up nothing.
	domains, err := domainSizes(sess.data)
	if err != nil {
		return nil, err
	}
	_, packs := rule.NewPacker(domains)
	if packs != w.wantPack {
		rep.fail("%s: schema packs into 64 bits = %v, want %v", w.name, packs, w.wantPack)
	}
	borrows := tot.counters["scratch_borrows"]
	if w.wantPack && borrows == 0 {
		rep.fail("%s: no scratch tables borrowed; the packed cube path did not run", w.name)
	}
	if !w.wantPack && borrows != 0 {
		rep.fail("%s: %d scratch tables borrowed; the string-key path should borrow none", w.name, borrows)
	}
	rep.Cond = map[string]any{
		"rows": w.rows, "base_rows": sess.data.NumRows(), "dims": len(domains),
		"key_bits": keyBits(domains), "packs": packs, "appends_per_setup": libAppends,
		"cycle_ops": len(cycle), "min_cycles": w.minCycles, "callers": 1,
	}

	if cfg.trace {
		tot.into(rep.Layers)
		memInto(rep.Layers, &mem0, &mem1, rep.Ops)
		rep.Layers["setup.generate_s"] = sess.generate.Seconds()
		rep.Layers["setup.prepare_s"] = sess.prepare.Seconds()
		rep.Layers["setup.warmup_s"] = warm.Seconds()
		rep.Layers["append.ms"] = mean(rep.Writes)
		rep.Layers["append.remine_ratio"] = float64(sess.remined) / float64(len(rep.Writes))
		rep.Layers["trace.ops"] = float64(tot.n)
	}
	return rep, nil
}

// setup generates the inputs, prepares the base rows and appends the
// batches, checking each append's row count and the session's epoch.
func (w libWorkload) setup(seed int64, rep *report) (libSession, error) {
	var s libSession
	t0 := time.Now()
	base, batches, err := w.inputs(seed, w.rows)
	if err != nil {
		return s, err
	}
	s.generate = time.Since(t0)
	t1 := time.Now()
	s.p, err = base.Prepare(w.prepare)
	if err != nil {
		return s, err
	}
	s.prepare = time.Since(t1)
	s.data = base
	rows := base.NumRows()
	for i, b := range batches {
		t := time.Now()
		res, err := s.p.Append(b, w.appendOpt)
		rep.Writes = append(rep.Writes, ms(time.Since(t)))
		rep.Attempted++
		if err != nil {
			s.p.Close()
			return s, fmt.Errorf("append %d: %w", i+1, err)
		}
		rows += b.NumRows()
		if res.Remined {
			s.remined++
		}
		if res.Rows != rows || s.p.NumRows() != rows || s.p.Epoch() != int64(i+1) {
			rep.fail("%s: after append %d: rows %d (session %d), epoch %d; want rows %d, epoch %d",
				w.name, i+1, res.Rows, s.p.NumRows(), s.p.Epoch(), rows, i+1)
		}
	}
	if rows != w.rows {
		return s, fmt.Errorf("generated %d rows, want %d", rows, w.rows)
	}
	return s, nil
}

// incomeBatches generates the income dataset and splits it into the base
// rows and the appended batches.
func incomeBatches(seed int64, rows int) (*sirum.Dataset, []*sirum.Dataset, error) {
	ds, err := sirum.Generate("income", rows, seed)
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		return nil, nil, err
	}
	lines := strings.SplitAfter(strings.TrimSuffix(buf.String(), "\n"), "\n")
	header, body := lines[0], lines[1:]
	cut := len(body) - libAppends*libBatchRows
	parse := func(part []string) (*sirum.Dataset, error) {
		return sirum.ReadCSV(strings.NewReader(header+strings.Join(part, "")), ds.MeasureName())
	}
	base, err := parse(body[:cut])
	if err != nil {
		return nil, nil, err
	}
	var batches []*sirum.Dataset
	for i := cut; i < len(body); i += libBatchRows {
		b, err := parse(body[i : i+libBatchRows])
		if err != nil {
			return nil, nil, err
		}
		batches = append(batches, b)
	}
	return base, batches, nil
}

// Wide schema: wideDims skewed dimensions of wideDomain values each. At
// seven bits per dimension the keys need 77 bits and cannot pack.
const (
	wideDims   = 11
	wideDomain = 100
)

// wideBatches builds the wide dataset through sirum.NewBuilder. Values
// follow a Zipf law, and two disjoint values of the first dimension shift
// the measure by similar amounts, so each query's first iteration selects
// both and every query runs the same number of iterations.
func wideBatches(seed int64, rows int) (*sirum.Dataset, []*sirum.Dataset, error) {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.3, 2, wideDomain-1)
	names := make([]string, wideDims)
	for j := range names {
		names[j] = fmt.Sprintf("w%02d", j)
	}
	build := func(n int) (*sirum.Dataset, error) {
		b := sirum.NewBuilder(names, "value")
		row := make([]string, wideDims)
		for i := 0; i < n; i++ {
			for j := range row {
				row[j] = fmt.Sprintf("v%d", zipf.Uint64())
			}
			m := 10 + rng.NormFloat64()
			switch row[0] {
			case "v0":
				m += 6
			case "v1":
				m -= 6
			}
			if row[1] == "v0" && row[2] == "v0" {
				m += 3
			}
			if err := b.Add(row, m); err != nil {
				return nil, err
			}
		}
		return b.Build()
	}
	base, err := build(rows - libAppends*libBatchRows)
	if err != nil {
		return nil, nil, err
	}
	var batches []*sirum.Dataset
	for i := 0; i < libAppends; i++ {
		b, err := build(libBatchRows)
		if err != nil {
			return nil, nil, err
		}
		batches = append(batches, b)
	}
	return base, batches, nil
}

// domainSizes counts the distinct values of each dimension through the
// public CSV writer.
func domainSizes(ds *sirum.Dataset) ([]int, error) {
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		return nil, err
	}
	seen := make([]map[string]bool, ds.NumDims())
	for j := range seen {
		seen[j] = map[string]bool{}
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	for _, line := range lines[1:] {
		fields := strings.Split(line, ",")
		for j := range seen {
			seen[j][fields[j]] = true
		}
	}
	out := make([]int, len(seen))
	for j, s := range seen {
		out[j] = len(s)
	}
	return out, nil
}

// keyBits is the packed key width the schema would need: per dimension the
// bits to hold every code plus the all-ones wildcard.
func keyBits(domains []int) int {
	bits := 0
	for _, d := range domains {
		for v := d; v > 0; v >>= 1 {
			bits++
		}
	}
	return bits
}

// answer is a query result reduced to what must repeat: the rules and
// their counts exactly, the floating-point aggregates to a relative 1e-9
// (parallel sums may differ in the last bits).
type answer struct {
	rules []string
	nums  []float64
}

func (a *answer) add(r sirum.Rule) {
	a.rules = append(a.rules, fmt.Sprintf("%s #%d", r, r.Count))
	a.nums = append(a.nums, r.Avg, r.Gain)
}

func answerOf(res *sirum.Result) answer {
	var a answer
	for _, r := range res.Rules {
		a.add(r)
	}
	a.nums = append(a.nums, res.KL, res.InfoGain)
	return a
}

func (a answer) equal(b answer) bool {
	if len(a.rules) != len(b.rules) || len(a.nums) != len(b.nums) {
		return false
	}
	for i := range a.rules {
		if a.rules[i] != b.rules[i] {
			return false
		}
	}
	for i, x := range a.nums {
		if y := b.nums[i]; math.Abs(x-y) > 1e-9*math.Max(math.Abs(x), math.Abs(y)) {
			return false
		}
	}
	return true
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
