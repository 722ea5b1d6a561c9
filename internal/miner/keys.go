package miner

import (
	"cmp"
	"fmt"

	"sirum/internal/candgen"
	"sirum/internal/cube"
	"sirum/internal/engine"
	"sirum/internal/rule"
)

// candidates is the miner's one seam to the rule-key representation: a
// query's candidate universe, refilled every round. newCandidates picks the
// implementation from the prepared schema — packedCands (uint64 keys in
// arena-recycled cube.PackedTables) when it packs into 64 bits, stringCands
// (rule.Key strings in per-partition maps) otherwise. Everything that
// depends on the key type sits behind it; the round's phase structure
// (generateCandidates) and rule selection (selectRules) are written once on
// top of it.
type candidates interface {
	// useMemo attaches the prepared LCA memo, building it from q's fork on
	// first use; leaves then replays it instead of scanning.
	useMemo(q *query) error
	// leaves computes the round's leaf instances: the memo replay, else the
	// sampled LCA scan, else (exhaustive) one instance per tuple.
	leaves(q *query) error
	// ancestors replaces the leaves with every candidate rule — the leaves
	// and all their ancestors, the data cube of Section 4.3.
	ancestors(c engine.Backend, groups [][]int) error
	// adjust applies the sample fix-up of Section 3.1.1.
	adjust(c engine.Backend, s *candgen.Sample) error
	// pruneRedundant drops the candidates redundantKeys reports.
	pruneRedundant(c engine.Backend) error
	// count returns the number of distinct candidates.
	count() int64
	// exclude keeps r out of every later ranking (an already-selected rule).
	exclude(r rule.Rule) error
	// top ranks the candidates not excluded by gain, keeps the best n —
	// descending gain, ties broken by key order — and returns how many it
	// kept; ranked(i) reads the i-th of them back.
	top(c engine.Backend, n int) int
	ranked(i int) (pick, error)
	// release drops the round's candidates and ranking, returning its
	// tables to the backend arena, so none of them stays live into the next
	// round. It is safe to call more than once and after a failed step.
	release(c engine.Backend)
}

// pick is a ranked candidate with its rule decoded.
type pick struct {
	rule rule.Rule
	gain float64
	agg  cube.Agg
}

// newCandidates returns a query's empty candidate universe in the key
// representation of the prepared schema — the only place that choice is made.
func (p *Prep) newCandidates() candidates {
	if p.packer != nil {
		return &packedCands{codec: candgen.NewPackedCodec(p.packer), selected: map[uint64]bool{}}
	}
	return &stringCands{codec: candgen.NewStringCodec(p.ds.NumDims()), selected: map[string]bool{}}
}

// redundantKeys returns the candidates that have the same support count as
// one of their children in the candidate set — their gain is identical to
// the child's, so evaluating both is wasted work (Chapter 7, future work).
// The child (more specific rule) is kept. counts maps every candidate key to
// its count; the check needs parent lookups across partitions, so callers
// gather it first (keys only — small relative to full aggregates).
func redundantKeys[K comparable](counts map[K]float64, d int, decode func(K, rule.Rule) (rule.Rule, error), encode func(rule.Rule) (K, error)) (map[K]bool, error) {
	redundant := make(map[K]bool)
	buf := make(rule.Rule, d)
	for k, n := range counts {
		child, err := decode(k, buf)
		if err != nil {
			return nil, fmt.Errorf("miner: corrupt candidate key: %w", err)
		}
		buf = child
		for j := 0; j < d; j++ {
			if child[j] == rule.Wildcard {
				continue
			}
			v := child[j]
			child[j] = rule.Wildcard
			pk, err := encode(child)
			child[j] = v
			if err != nil {
				return nil, fmt.Errorf("miner: %w", err)
			}
			if pc, ok := counts[pk]; ok && pc == n {
				redundant[pk] = true
			}
		}
	}
	return redundant, nil
}

// rankedPick decodes the i-th candidate of a top-k pool.
func rankedPick[K cmp.Ordered](pool []candgen.Candidate[K], i int, decode func(K, rule.Rule) (rule.Rule, error)) (pick, error) {
	r, err := decode(pool[i].Key, nil)
	if err != nil {
		return pick{}, fmt.Errorf("miner: corrupt candidate key: %w", err)
	}
	return pick{rule: r, gain: pool[i].Gain, agg: pool[i].Agg}, nil
}

// stringCands is the general representation: rule.Key strings in
// per-partition maps, for schemas too wide to pack. It is also the reference
// the equivalence tests hold packedCands to.
type stringCands struct {
	codec    candgen.StringCodec
	memo     *lcaMemo[string]
	cur      *engine.PColl[map[string]cube.Agg]
	selected map[string]bool
	pool     []candgen.Candidate[string]
}

func (s *stringCands) useMemo(q *query) error {
	var err error
	s.memo, err = memoFor(q, &q.p.stringMemo, s.codec.ForEachLeafKey)
	return err
}

func (s *stringCands) leaves(q *query) error {
	var err error
	switch {
	case s.memo != nil:
		s.cur, err = replayMaps(s.memo, q.data)
	case q.sample != nil:
		if q.opt.useShuffleJoin() {
			q.c.Repartition(q.p.dataBytes, 0)
		}
		s.cur, err = candgen.LCAParts(q.c, q.data, q.sample, q.opt.useIndex(), q.index)
	default:
		s.cur, err = candgen.ExhaustiveParts(q.c, q.data)
	}
	return err
}

func (s *stringCands) ancestors(c engine.Backend, groups [][]int) error {
	// The cube consumes the leaves in its first round; holding them in s.cur
	// until it returns would keep them live through every later stage.
	leaves := s.cur
	s.cur = nil
	var err error
	s.cur, err = cube.Compute(c, leaves, s.codec.D, groups)
	return err
}

func (s *stringCands) adjust(c engine.Backend, smp *candgen.Sample) error {
	return candgen.AdjustForSample(c, s.cur, smp)
}

func (s *stringCands) pruneRedundant(c engine.Backend) error {
	counts := make(map[string]float64)
	for _, part := range s.cur.Parts() {
		for k, agg := range part {
			counts[k] = agg.Count
		}
	}
	redundant, err := redundantKeys(counts, s.codec.D, s.codec.DecodeRule, s.codec.EncodeRule)
	if err != nil || len(redundant) == 0 {
		return err
	}
	s.cur = engine.MapParts(c, s.cur, "miner/prune-redundant", func(_ int, part map[string]cube.Agg) map[string]cube.Agg {
		out := make(map[string]cube.Agg, len(part))
		for k, v := range part {
			if !redundant[k] {
				out[k] = v
			}
		}
		return out
	})
	return nil
}

func (s *stringCands) count() int64 { return cube.CountCandidates(s.cur) }

func (s *stringCands) exclude(r rule.Rule) error {
	k, err := s.codec.EncodeRule(r)
	if err != nil {
		return err
	}
	s.selected[k] = true
	return nil
}

func (s *stringCands) top(c engine.Backend, n int) int {
	s.pool = candgen.TopByGain(c, s.cur, n, s.selected)
	return len(s.pool)
}

func (s *stringCands) ranked(i int) (pick, error) {
	return rankedPick(s.pool, i, s.codec.DecodeRule)
}

func (s *stringCands) release(engine.Backend) { s.cur, s.pool = nil, nil }

// packedCands is the representation of every schema that packs into 64
// bits: uint64 keys in arena-recycled flat tables. Leaf instances land in
// borrowed PackedTables, the cube runs table-native (cube.ComputeTables),
// and the sample fix-up mutates aggregates in place. Each intermediate
// collection is released the moment it is consumed, so a query's iterations
// cycle the same backing arrays through the arena instead of allocating the
// candidate universe per stage.
type packedCands struct {
	codec    candgen.PackedCodec
	memo     *lcaMemo[uint64]
	cur      *engine.PColl[*cube.PackedTable]
	selected map[uint64]bool
	pool     []candgen.Candidate[uint64]
}

func (t *packedCands) useMemo(q *query) error {
	var err error
	t.memo, err = memoFor(q, &q.p.packedMemo, t.codec.ForEachLeafKey)
	return err
}

func (t *packedCands) leaves(q *query) error {
	var err error
	switch {
	case t.memo != nil:
		t.cur, err = replayTables(t.memo, q.c, q.data)
	case q.sample != nil:
		if q.opt.useShuffleJoin() {
			q.c.Repartition(q.p.dataBytes, 0)
		}
		t.cur, err = t.codec.LCATables(q.c, q.data, q.sample, q.opt.useIndex(), q.index)
	default:
		t.cur, err = t.codec.ExhaustiveTables(q.c, q.data)
	}
	return err
}

func (t *packedCands) ancestors(c engine.Backend, groups [][]int) error {
	cands, err := cube.ComputeTables(c, t.cur, t.codec.PackedKeys, groups)
	// The leaf tables are consumed by the cube's round-0 shuffle; recycle
	// them before the fix-up borrows more.
	t.release(c)
	t.cur = cands
	return err
}

func (t *packedCands) adjust(c engine.Backend, s *candgen.Sample) error {
	return candgen.AdjustTablesForSample(c, t.cur, s, t.codec)
}

// pruneRedundant copies the survivors into fresh borrowed tables and
// recycles the originals.
func (t *packedCands) pruneRedundant(c engine.Backend) error {
	counts := make(map[uint64]float64)
	for _, part := range t.cur.Parts() {
		part.ForEach(func(k uint64, agg cube.Agg) { counts[k] = agg.Count })
	}
	redundant, err := redundantKeys(counts, t.codec.NumDims(), t.codec.DecodeRule, t.codec.EncodeRule)
	if err != nil || len(redundant) == 0 {
		return err
	}
	kept := engine.MapParts(c, t.cur, "miner/prune-redundant", func(_ int, part *cube.PackedTable) *cube.PackedTable {
		out := cube.BorrowTable(c, part.Len())
		part.ForEach(func(k uint64, v cube.Agg) {
			if !redundant[k] {
				out.Add(k, v)
			}
		})
		return out
	})
	t.release(c)
	t.cur = kept
	return nil
}

func (t *packedCands) count() int64 { return cube.CountTableCandidates(t.cur) }

func (t *packedCands) exclude(r rule.Rule) error {
	k, err := t.codec.EncodeRule(r)
	if err != nil {
		return err
	}
	t.selected[k] = true
	return nil
}

func (t *packedCands) top(c engine.Backend, n int) int {
	t.pool = candgen.TopByGainTables(c, t.cur, n, t.selected)
	return len(t.pool)
}

func (t *packedCands) ranked(i int) (pick, error) {
	return rankedPick(t.pool, i, t.codec.DecodeRule)
}

func (t *packedCands) release(c engine.Backend) {
	if t.cur != nil {
		cube.ReleaseTables(c, t.cur)
		t.cur = nil
	}
	t.pool = nil
}
