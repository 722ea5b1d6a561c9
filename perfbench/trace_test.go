package main

import (
	"testing"
	"time"
)

var t0 = time.Unix(1000, 0)

// at returns the instant ms milliseconds after t0.
func at(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }

func TestCoveredMergesOverlaps(t *testing.T) {
	for _, c := range []struct {
		desc string
		ivs  []interval
		want time.Duration
	}{
		{"none", nil, 0},
		{"disjoint", []interval{{at(10), at(20)}, {at(30), at(40)}}, 20 * time.Millisecond},
		{"overlapping", []interval{{at(10), at(30)}, {at(20), at(40)}}, 30 * time.Millisecond},
		{"nested", []interval{{at(10), at(50)}, {at(20), at(30)}}, 40 * time.Millisecond},
		{"touching", []interval{{at(10), at(20)}, {at(20), at(30)}}, 20 * time.Millisecond},
		{"unsorted", []interval{{at(60), at(70)}, {at(10), at(20)}, {at(15), at(25)}}, 25 * time.Millisecond},
		{"clipped to the parent", []interval{{at(-10), at(10)}, {at(90), at(120)}}, 20 * time.Millisecond},
		{"outside the parent", []interval{{at(200), at(300)}}, 0},
	} {
		if got := covered(at(0), at(100), c.ivs); got != c.want {
			t.Errorf("%s: covered = %v, want %v", c.desc, got, c.want)
		}
	}
}

func TestSelfTimesSubtractChildUnionAndInner(t *testing.T) {
	spans := []span{
		{layer: "client", start: at(0), end: at(100), parent: -1},
		{layer: "router", start: at(10), end: at(60), parent: 0},
		{layer: "router", start: at(40), end: at(80), parent: 0}, // overlaps the first child
		{layer: "shard", start: at(20), end: at(50), parent: 1, inner: 25 * time.Millisecond},
	}
	want := []time.Duration{30, 20, 40, 5}
	for i, got := range selfTimes(spans) {
		if got != want[i]*time.Millisecond {
			t.Errorf("span %d: self %v, want %v", i, got, want[i]*time.Millisecond)
		}
	}
}

func TestNestPairsBySessionAndContainment(t *testing.T) {
	spans := []span{
		{layer: "shard", session: "a", start: at(12), end: at(18), parent: -1},
		{layer: "client", session: "a", class: "miss", start: at(0), end: at(20), wall: 4 * time.Millisecond, parent: -1},
		{layer: "router", session: "a", start: at(10), end: at(19), parent: -1},
		{layer: "client", session: "b", class: "hit", start: at(5), end: at(30), parent: -1},
		{layer: "router", session: "b", start: at(11), end: at(29), parent: -1},
		{layer: "router", session: "a", start: at(40), end: at(50), parent: -1}, // set-up traffic, no client span
	}
	nest(spans)
	for i, want := range []struct {
		parent int
		class  string
		inner  time.Duration
	}{{2, "miss", 4 * time.Millisecond}, {-1, "miss", 0}, {1, "miss", 0}, {-1, "hit", 0}, {3, "hit", 0}, {-1, "", 0}} {
		if s := spans[i]; s.parent != want.parent || s.class != want.class || s.inner != want.inner {
			t.Errorf("span %d: parent %d class %q inner %v, want %d %q %v", i, s.parent, s.class, s.inner, want.parent, want.class, want.inner)
		}
	}
}

func TestAggregateByLayerAndClass(t *testing.T) {
	spans := []span{
		{layer: "client", session: "a", class: "miss", start: at(0), end: at(100), wall: 60 * time.Millisecond, parent: -1},
		{layer: "router", session: "a", start: at(5), end: at(95), parent: -1},
		{layer: "shard", session: "a", start: at(10), end: at(90), parent: -1},
		{layer: "client", session: "a", class: "hit", start: at(200), end: at(210), parent: -1},
		{layer: "router", session: "a", start: at(202), end: at(208), parent: -1},
		{layer: "shard", session: "a", start: at(203), end: at(207), parent: -1},
		{layer: "client", session: "b", class: "miss", start: at(0), end: at(50), wall: 30 * time.Millisecond, parent: -1},
		{layer: "router", session: "b", start: at(2), end: at(48), parent: -1},
		{layer: "shard", session: "b", start: at(4), end: at(44), parent: -1},
		{layer: "shard", session: "b", start: at(300), end: at(310), parent: -1}, // no client: left out
	}
	nest(spans)
	agg := aggregate(spans)
	for _, c := range []struct {
		key        layerKey
		n          int
		mean, self float64
	}{
		{layerKey{"client", "miss"}, 2, 75, 7}, // (100+50)/2; self (10+4)/2
		{layerKey{"router", "miss"}, 2, 68, 8}, // (90+46)/2; self (10+6)/2
		{layerKey{"shard", "miss"}, 2, 60, 15}, // (80+40)/2; self (80-60 + 40-30)/2
		{layerKey{"client", "hit"}, 1, 10, 4},  // self 10-6
		{layerKey{"shard", "hit"}, 1, 4, 4},    // no engine time on a hit
		{layerKey{"shard", "append"}, 0, 0, 0}, // no such spans
	} {
		a := agg[c.key]
		if a.n != c.n || a.meanMS() != c.mean || a.meanSelfMS() != c.self {
			t.Errorf("%v: n %d mean %v self %v, want %d %v %v", c.key, a.n, a.meanMS(), a.meanSelfMS(), c.n, c.mean, c.self)
		}
	}
	if len(agg) != 6 {
		t.Errorf("aggregate has %d rows, want 6 (client, router, shard × hit, miss): %v", len(agg), agg)
	}
	// Layer self times of a miss plus the engine time add up to the
	// client latency.
	miss := func(l string) layerSum { return agg[layerKey{l, "miss"}] }
	sum := miss("client").meanSelfMS() + miss("router").meanSelfMS() + miss("shard").meanSelfMS() + 45
	if sum != miss("client").meanMS() {
		t.Errorf("self times plus engine time = %v ms, client latency %v ms", sum, miss("client").meanMS())
	}
}

func TestSessionOf(t *testing.T) {
	for path, want := range map[string]string{
		"/v1/datasets/c0-s1/mine":   "c0-s1",
		"/v1/datasets/c0-s1/append": "c0-s1",
		"/v1/datasets/c0-s1":        "",
		"/v1/datasets":              "",
		"/v1/shards":                "",
	} {
		if got := sessionOf(path); got != want {
			t.Errorf("sessionOf(%q) = %q, want %q", path, got, want)
		}
	}
}
