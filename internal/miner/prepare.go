package miner

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sirum/internal/candgen"
	"sirum/internal/cube"
	"sirum/internal/dataset"
	"sirum/internal/engine"
	"sirum/internal/maxent"
	"sirum/internal/rule"
	"sirum/internal/stats"
)

// PrepOptions configures the prepare-once phase of a mining session: the
// work that depends only on the dataset, not on any particular query.
type PrepOptions struct {
	// SampleSize is |s| for candidate pruning; the sample is drawn once so
	// that every query (and every variant, as in the thesis' evaluation)
	// sees the same candidate space. 0 prepares for exhaustive exploration.
	SampleSize int
	// Seed drives the pruning sample and the Bernoulli data sample
	// (default 1).
	Seed int64
	// Partitions overrides the number of data blocks (default: backend's).
	Partitions int
	// SampleFraction, in (0,1), prepares a Bernoulli sample of the data
	// instead of the data itself (SIRUM on sample data, Section 4.5).
	SampleFraction float64
	// DisableLCAMemo turns off the cross-iteration/cross-query reuse of the
	// estimate-independent LCA aggregates, restoring the paper-faithful
	// behaviour of recomputing candidate pruning on every iteration. The
	// experiments that compare pruning strategies by time need it off;
	// serving sessions want it on (the default).
	DisableLCAMemo bool
}

func (o PrepOptions) withDefaults() PrepOptions {
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// memoMaxEntries caps the LCA memo's row-incidence count (one int32 each):
// beyond it the memo would rival the data in size, so queries fall back to
// per-iteration recomputation.
const memoMaxEntries = 32 << 20

// prepSeq names prepared datasets uniquely in the backend's pool.
var prepSeq atomic.Int64

// Prep is the prepare-once state of a mining session over one dataset on
// one (possibly shared) backend: the measure transform, the partitioned
// blocks cached in the backend's pool, the pruning sample with its inverted
// index, and (lazily) the memoized LCA structure. Many queries — Mine with
// different K, variants, priors — run against one Prep concurrently: all
// prepared state is immutable after construction, and every query works on
// a private fork of the estimate columns with a private metrics scope.
type Prep struct {
	c    engine.Backend
	ds   *dataset.Dataset // the data queries run against (the Bernoulli sample if SampleFraction is set)
	full *dataset.Dataset // the unsampled dataset for EvaluateOnFullData; nil without SampleFraction
	opt  PrepOptions

	transform maxent.Transform
	work      []float64 // transformed measure column
	dataBytes int64
	parts     int
	sample    *candgen.Sample // nil when SampleSize is 0
	packer    *rule.Packer    // non-nil when the schema packs into 64-bit keys
	poolID    string

	indexOnce sync.Once
	index     *candgen.InvertedIndex // built on first indexed use; nil without a sample

	loadMu sync.Mutex // serializes (re)loading the blocks into the pool

	memoMu     sync.Mutex
	stringMemo *lcaMemo[string] // the LCA memo of string-key queries, built on first use
	packedMemo *lcaMemo[uint64] // the LCA memo of packed-key queries, built on first use
}

// Prepare runs the preparation phase on c: measure transform, optional
// Bernoulli data sample, pruning sample + inverted index, and the block load
// into the backend's prepared-dataset pool. The returned Prep serves many
// queries; Drop releases the pooled blocks when the session ends.
func Prepare(c engine.Backend, ds *dataset.Dataset, opt PrepOptions) (*Prep, error) {
	p, err := prepare(c, ds, opt)
	if err != nil {
		return nil, err
	}
	// Load eagerly so the first query pays no preparation cost.
	_, release, err := p.ensureData(c)
	if err != nil {
		return nil, err
	}
	release()
	return p, nil
}

// prepare builds the Prep without loading blocks: the load happens lazily in
// ensureData, charged to whichever query triggers it (for cold runs, the one
// and only query, so its result covers the whole run).
func prepare(c engine.Backend, ds *dataset.Dataset, opt PrepOptions) (*Prep, error) {
	if s, ok := c.(*engine.QueryScope); ok {
		c = s.Base()
	}
	opt = opt.withDefaults()
	if ds.NumRows() == 0 {
		return nil, fmt.Errorf("miner: empty dataset")
	}
	p := &Prep{c: c, ds: ds, opt: opt}

	// SIRUM on sample data (Section 4.5): replace D with a Bernoulli sample
	// sized to memory; keep the original around for final evaluation.
	if opt.SampleFraction > 0 && opt.SampleFraction < 1 {
		p.full = ds
		p.ds = ds.SampleFraction(stats.NewRand(opt.Seed+1), opt.SampleFraction)
		if p.ds.NumRows() == 0 {
			return nil, fmt.Errorf("miner: sample fraction %v left no rows", opt.SampleFraction)
		}
	}

	// Measure preprocessing (Section 2.2).
	p.transform, p.work = maxent.NewTransform(p.ds.Measure)
	p.dataBytes = p.ds.ApproxBytes()
	p.parts = opt.Partitions
	if p.parts <= 0 {
		p.parts = c.Config().Partitions
	}

	// The pruning sample is drawn once; queries whose sample parameters
	// match reuse it (and the lazily built inverted index).
	if opt.SampleSize > 0 {
		p.sample = candgen.DrawSample(p.ds, stats.NewRand(opt.Seed), opt.SampleSize)
	}
	// Packed single-word rule keys whenever the dictionaries fit; queries
	// fall back to string keys otherwise. Recomputed on every (re)prepare, so
	// appends that grow a dictionary past a field boundary stay correct.
	p.packer, _ = rule.NewPacker(p.ds.DomainSizes())
	p.poolID = fmt.Sprintf("prep-%d", prepSeq.Add(1))
	return p, nil
}

// indexFor returns the per-attribute inverted index over the prepared
// sample (Section 4.2), building it exactly once on first indexed use —
// variants that never consult the index never pay for it.
func (p *Prep) indexFor() *candgen.InvertedIndex {
	p.indexOnce.Do(func() {
		if p.sample != nil {
			p.index = candgen.BuildIndex(p.sample)
		}
	})
	return p.index
}

// Dataset returns the data queries run against (the Bernoulli sample when
// SampleFraction is set).
func (p *Prep) Dataset() *dataset.Dataset { return p.ds }

// Backend returns the shared substrate the session runs on.
func (p *Prep) Backend() engine.Backend { return p.c }

// Options returns the effective preparation options.
func (p *Prep) Options() PrepOptions { return p.opt }

// Mine runs one query against the prepared state on a fresh metrics scope.
// It is safe to call concurrently.
func (p *Prep) Mine(opt Options) (*Result, error) {
	qc := engine.NewQueryScope(p.c)
	// The query's operator metrics fold into the substrate's lifetime
	// registry (even on error — the work happened), so session stats see
	// every query.
	defer qc.Finish()
	return p.mineScoped(qc, opt.withDefaults(), time.Now(), qc.SimTime())
}

// Drop releases the pooled blocks and the memo. Queries already in flight
// finish (they hold forks); later queries re-prepare on demand.
func (p *Prep) Drop() {
	p.c.Pool().Remove(p.poolID)
	p.memoMu.Lock()
	p.stringMemo, p.packedMemo = nil, nil
	p.memoMu.Unlock()
}

// ensureData returns the canonical cached blocks with a pool reference held
// (callers must invoke the returned release). If the pool evicted them — a
// shared backend holds only so many prepared datasets — they are rebuilt,
// charging the load to qc.
func (p *Prep) ensureData(qc engine.Backend) (*engine.CachedData, func(), error) {
	pool := p.c.Pool()
	if cd, ref, ok := pool.Acquire(p.poolID); ok {
		return cd, ref.Release, nil
	}
	p.loadMu.Lock()
	defer p.loadMu.Unlock()
	if cd, ref, ok := pool.Acquire(p.poolID); ok {
		return cd, ref.Release, nil
	}
	blocks := engine.BlocksFromColumns(p.ds.Dims, p.work, nil, p.parts)
	// Initial read from the distributed file system.
	qc.ChargeDiskRead(p.dataBytes)
	data, err := engine.CacheTuples(p.c, blocks)
	if err != nil {
		return nil, nil, err
	}
	data, ref := pool.Put(p.poolID, data)
	return data, ref.Release, nil
}

// memoEligible reports whether the prepared LCA memo may serve this query:
// memoization on, the query uses the prepared candidate space, and the memo
// would not dwarf the data.
func (p *Prep) memoEligible(opt Options, sample *candgen.Sample) bool {
	if p.opt.DisableLCAMemo {
		return false
	}
	if opt.SampleSize != p.opt.SampleSize {
		return false
	}
	if p.sample != nil {
		if sample != p.sample {
			return false
		}
		if int64(p.sample.Size())*int64(p.ds.NumRows()) > memoMaxEntries {
			return false
		}
	} else if int64(p.ds.NumRows()) > memoMaxEntries {
		// Exhaustive memo: one incidence per row plus one key per distinct
		// tuple — the same cap applies.
		return false
	}
	return true
}

// memoFor returns the shared LCA memo held in slot — the Prep field of the
// query's key representation — building it from q's fork on first use (one
// builder at a time; concurrent first queries wait).
func memoFor[K comparable](q *query, slot **lcaMemo[K], leafKeys leafKeyFunc[K]) (*lcaMemo[K], error) {
	p := q.p
	p.memoMu.Lock()
	defer p.memoMu.Unlock()
	if *slot == nil {
		memo, err := buildLCAMemo(q.data, p.sample, p.indexFor(), leafKeys)
		if err != nil {
			return nil, err
		}
		*slot = memo
	}
	return *slot, nil
}

// leafKeyFunc enumerates a block's (leaf key, row) incidences in ascending
// row order — a codec's ForEachLeafKey.
type leafKeyFunc[K comparable] func(b *engine.TupleBlock, s *candgen.Sample, ix *candgen.InvertedIndex, emit func(key K, row int))

// lcaMemo caches, per block, the estimate-independent part of the LCA (or
// exhaustive) candidate aggregates: each distinct candidate key with its
// measure sum, pair count and covered-row incidence list. Keys, sums and
// counts never change between iterations or queries; only the estimate sums
// do, and those are recomputed per round as a gather over the query fork's
// Mhat column — the prepare-once payoff that replaces the full LCA
// recomputation of every round.
type lcaMemo[K comparable] struct {
	blocks []lcaMemoBlock[K]
}

type lcaMemoBlock[K comparable] struct {
	keys     []K
	sumM     []float64
	count    []float64
	rowStart []int32 // CSR offsets into rows, len(keys)+1
	rows     []int32 // block-local row ids, one per (row, sample) incidence
}

// buildLCAMemo scans the data once, producing the same per-block key sets as
// the LCA scan (or the exhaustive scan when s is nil) while recording the
// row incidences. leafKeys enumerates incidences in ascending row order,
// matching the summation order of the direct computation, so memoized
// aggregates are bit-identical to recomputed ones.
func buildLCAMemo[K comparable](data *engine.CachedData, s *candgen.Sample, ix *candgen.InvertedIndex, leafKeys leafKeyFunc[K]) (*lcaMemo[K], error) {
	memo := &lcaMemo[K]{blocks: make([]lcaMemoBlock[K], data.NumBlocks())}
	err := data.Scan("miner/lca-memo", false, func(bi int, b *engine.TupleBlock) {
		type entry struct {
			sumM  float64
			count float64
			rows  []int32
		}
		local := make(map[K]*entry)
		leafKeys(b, s, ix, func(key K, i int) {
			e, ok := local[key]
			if !ok {
				e = &entry{}
				local[key] = e
			}
			e.sumM += b.M[i]
			e.count++
			e.rows = append(e.rows, int32(i))
		})
		mb := lcaMemoBlock[K]{
			keys:     make([]K, 0, len(local)),
			sumM:     make([]float64, 0, len(local)),
			count:    make([]float64, 0, len(local)),
			rowStart: make([]int32, 1, len(local)+1),
		}
		for k, e := range local {
			mb.keys = append(mb.keys, k)
			mb.sumM = append(mb.sumM, e.sumM)
			mb.count = append(mb.count, e.count)
			mb.rows = append(mb.rows, e.rows...)
			mb.rowStart = append(mb.rowStart, int32(len(mb.rows)))
		}
		memo.blocks[bi] = mb
	})
	if err != nil {
		return nil, err
	}
	return memo, nil
}

// agg returns key ki's aggregates under the estimates mhat: the memoized
// measure sum and count, and the estimate sum over the key's covered rows.
func (mb *lcaMemoBlock[K]) agg(ki int, mhat []float64) cube.Agg {
	var sm float64
	for _, r := range mb.rows[mb.rowStart[ki]:mb.rowStart[ki+1]] {
		sm += mhat[r]
	}
	return cube.Agg{SumM: mb.sumM[ki], SumMhat: sm, Count: mb.count[ki]}
}

// replayMaps materializes this round's string-key leaf aggregates from the
// memo and the query's current estimates: one scan summing Mhat over each
// key's covered rows.
func replayMaps(m *lcaMemo[string], data *engine.CachedData) (*engine.PColl[map[string]cube.Agg], error) {
	out := make([]map[string]cube.Agg, data.NumBlocks())
	err := data.Scan("miner/lca-replay", false, func(bi int, b *engine.TupleBlock) {
		mb := &m.blocks[bi]
		local := make(map[string]cube.Agg, len(mb.keys))
		for ki, k := range mb.keys {
			local[k] = mb.agg(ki, b.Mhat)
		}
		out[bi] = local
	})
	if err != nil {
		return nil, err
	}
	return engine.NewPColl(out), nil
}

// replayTables is replayMaps for the packed representation, into borrowed
// flat tables.
func replayTables(m *lcaMemo[uint64], c engine.Backend, data *engine.CachedData) (*engine.PColl[*cube.PackedTable], error) {
	out := make([]*cube.PackedTable, data.NumBlocks())
	err := data.Scan("miner/lca-replay", false, func(bi int, b *engine.TupleBlock) {
		mb := &m.blocks[bi]
		local := cube.BorrowTable(c, len(mb.keys))
		for ki, k := range mb.keys {
			local.Add(k, mb.agg(ki, b.Mhat))
		}
		out[bi] = local
	})
	if err != nil {
		return nil, err
	}
	return engine.NewPColl(out), nil
}
