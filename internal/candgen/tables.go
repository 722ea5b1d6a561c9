package candgen

import (
	"fmt"

	"sirum/internal/cube"
	"sirum/internal/engine"
	"sirum/internal/metrics"
	"sirum/internal/rule"
)

// This file is the packed-key pipeline: the leaf-instance scans, sample
// fix-up and top-k of candgen.go, producing and consuming arena-recycled
// cube.PackedTables so a prepared session's steady-state rounds stop
// allocating. The cross-representation equivalence tests hold it to the
// string-key path: identical candidate sets and rule lists.

// ExhaustiveTables is ExhaustiveParts into borrowed tables: every data tuple
// becomes a full-constant rule instance.
func (c PackedCodec) ExhaustiveTables(b engine.Backend, data *engine.CachedData) (*engine.PColl[*cube.PackedTable], error) {
	p := c.P
	out := make([]*cube.PackedTable, data.NumBlocks())
	err := data.Scan("candgen/exhaustive", false, func(bi int, blk *engine.TupleBlock) {
		local := cube.BorrowTable(b, blk.NumRows())
		d := len(blk.Dims)
		codes := make(rule.Rule, d)
		for i := 0; i < blk.NumRows(); i++ {
			for j := 0; j < d; j++ {
				codes[j] = blk.Dims[j][i]
			}
			local.Add(p.PackCodes(codes), cube.Agg{SumM: blk.M[i], SumMhat: blk.Mhat[i], Count: 1})
		}
		out[bi] = local
	})
	if err != nil {
		return nil, err
	}
	return engine.NewPColl(out), nil
}

// LCATables is LCAParts into borrowed tables: the locally combined LCA
// aggregates of every (sample tuple, data tuple) pair, one table per block.
func (c PackedCodec) LCATables(b engine.Backend, data *engine.CachedData, s *Sample, indexed bool, ix *InvertedIndex) (*engine.PColl[*cube.PackedTable], error) {
	if s.Size() == 0 {
		return nil, fmt.Errorf("candgen: empty sample")
	}
	if indexed {
		if ix == nil {
			ix = BuildIndex(s)
		}
		b.Broadcast(ix.Bytes() + s.Bytes())
	} else {
		b.Broadcast(s.Bytes())
	}
	p := c.P
	out := make([]*cube.PackedTable, data.NumBlocks())
	comparisons := make([]int64, data.NumBlocks())
	err := data.Scan("candgen/lca", false, func(bi int, blk *engine.TupleBlock) {
		local := cube.BorrowTable(b, blk.NumRows())
		if indexed {
			comparisons[bi] = lcaIndexedTable(blk, s, ix, p, local)
		} else {
			comparisons[bi] = lcaNaiveTable(blk, s, p, local)
		}
		out[bi] = local
	})
	if err != nil {
		return nil, err
	}
	var total int64
	for _, n := range comparisons {
		total += n
	}
	b.Reg().Add(metrics.CtrLCAComparisons, total)
	return engine.NewPColl(out), nil
}

func lcaNaiveTable(b *engine.TupleBlock, s *Sample, p *rule.Packer, local *cube.PackedTable) int64 {
	d := len(b.Dims)
	lca := make(rule.Rule, d)
	var comps int64
	for i := 0; i < b.NumRows(); i++ {
		agg := cube.Agg{SumM: b.M[i], SumMhat: b.Mhat[i], Count: 1}
		for _, srow := range s.Rows {
			for j := 0; j < d; j++ {
				if srow[j] == b.Dims[j][i] {
					lca[j] = srow[j]
				} else {
					lca[j] = rule.Wildcard
				}
			}
			comps += int64(d)
			local.Add(p.PackCodes(lca), agg)
		}
	}
	return comps
}

func lcaIndexedTable(b *engine.TupleBlock, s *Sample, ix *InvertedIndex, p *rule.Packer, local *cube.PackedTable) int64 {
	d := len(b.Dims)
	ns := s.Size()
	wild := p.AllWildcards()
	buf := make([]uint64, ns)
	var ops int64
	for i := 0; i < b.NumRows(); i++ {
		for si := range buf {
			buf[si] = wild
		}
		for j := 0; j < d; j++ {
			v := b.Dims[j][i]
			ops++ // one index lookup per attribute
			for _, si := range ix.Posting(j, v) {
				buf[si] = p.Set(buf[si], j, v)
				ops++
			}
		}
		agg := cube.Agg{SumM: b.M[i], SumMhat: b.Mhat[i], Count: 1}
		for si := 0; si < ns; si++ {
			local.Add(buf[si], agg)
		}
	}
	return ops
}

// AdjustTablesForSample is AdjustForSample over table partitions: each
// candidate's aggregates are divided by its sample match count through the
// tables' mutable walk.
func AdjustTablesForSample(c engine.Backend, candidates *engine.PColl[*cube.PackedTable], s *Sample, codec PackedCodec) error {
	c.Broadcast(s.Bytes())
	errs := make([]error, candidates.NumParts())
	c.RunStage("candgen/adjust", candidates.NumParts(), func(i int) {
		buf := make(rule.Rule, codec.NumDims())
		candidates.Part(i).ForEachPtr(func(key uint64, agg *cube.Agg) bool {
			r, err := codec.DecodeRule(key, buf)
			if err != nil {
				errs[i] = fmt.Errorf("candgen: corrupt candidate key: %w", err)
				return false
			}
			buf = r
			mc := s.MatchCount(r)
			if mc == 0 {
				errs[i] = fmt.Errorf("candgen: candidate %v covers no sample tuple", r.Clone())
				return false
			}
			f := float64(mc)
			agg.SumM /= f
			agg.SumMhat /= f
			agg.Count /= f
			return true
		})
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// TopByGainTables is TopByGain over table partitions: per-partition min-heaps
// merged at the driver, identical scoring, exclusion and tie-break semantics.
func TopByGainTables(c engine.Backend, candidates *engine.PColl[*cube.PackedTable], n int, exclude map[uint64]bool) []Candidate[uint64] {
	if n <= 0 {
		return nil
	}
	tops := engine.MapParts(c, candidates, "candgen/topk", func(_ int, part *cube.PackedTable) []Candidate[uint64] {
		h := make(candHeap[uint64], 0, n+1)
		part.ForEach(func(key uint64, agg cube.Agg) { h.offer(n, key, agg, exclude) })
		return h
	})
	return mergeTopK(tops, n)
}
