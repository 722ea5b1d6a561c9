package main

import (
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call across a layer boundary, recorded from outside the
// program: around a client request, or around the router's or a shard's
// HTTP handler.
type span struct {
	layer   string // "client", "router" or "shard"
	session string // session id from the request path
	class   string // "hit", "miss" or "append"; inherited from the root span
	start   time.Time
	end     time.Time
	parent  int           // index of the enclosing span, -1 for a root
	wall    time.Duration // engine wall_ns the response reported; inherited from the root span
	inner   time.Duration // time spent inside the program below this span, excluded from its self time
}

// layerOrder lists the serve layers outermost first.
var layerOrder = []string{"client", "router", "shard"}

// tracer collects spans in memory; they are aggregated once the run ends.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// wrap records a span of the given layer around every session request h
// serves. A nil tracer returns h itself, so the untraced run pays nothing.
func (t *tracer) wrap(layer string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		if id := sessionOf(r.URL.Path); id != "" {
			t.add(span{layer: layer, session: id, start: start, end: time.Now(), parent: -1})
		}
	})
}

// sessionOf extracts the session id from /v1/datasets/{id}/{op} paths.
func sessionOf(path string) string {
	rest, ok := strings.CutPrefix(path, "/v1/datasets/")
	if !ok {
		return ""
	}
	id, _, ok := strings.Cut(rest, "/")
	if !ok {
		return ""
	}
	return id
}

// nest links every span to the span of the next layer out (in layerOrder)
// that has the same session and whose interval contains it, and copies the
// root's class and engine wall time down the chain. The engine runs inside
// the innermost layer, so that layer's span gets the wall time as inner
// time. One client drives each session and waits for each reply, so at
// most one request per session is in flight and the containing span is
// unique.
func nest(spans []span) {
	depth := map[string]int{}
	for i, l := range layerOrder {
		depth[l] = i
	}
	idx := make([]int, len(spans))
	for i := range idx {
		idx[i] = i
	}
	// Outer layers first, so a parent's class is set before its children
	// inherit it.
	sort.SliceStable(idx, func(a, b int) bool { return depth[spans[idx[a]].layer] < depth[spans[idx[b]].layer] })
	for _, i := range idx {
		c := &spans[i]
		d := depth[c.layer]
		if d == 0 {
			continue
		}
		for j := range spans {
			p := &spans[j]
			if depth[p.layer] == d-1 && p.session == c.session && !p.start.After(c.start) && !p.end.Before(c.end) {
				c.parent = j
				c.class, c.wall = p.class, p.wall
				if d == len(layerOrder)-1 {
					c.inner = c.wall
				}
				break
			}
		}
	}
}

type interval struct{ start, end time.Time }

// covered returns how much of [lo, hi] the union of ivs covers; overlapping
// intervals are merged so shared time counts once.
func covered(lo, hi time.Time, ivs []interval) time.Duration {
	var clip []interval
	for _, iv := range ivs {
		if iv.start.Before(lo) {
			iv.start = lo
		}
		if iv.end.After(hi) {
			iv.end = hi
		}
		if iv.end.After(iv.start) {
			clip = append(clip, iv)
		}
	}
	sort.Slice(clip, func(a, b int) bool { return clip[a].start.Before(clip[b].start) })
	var total time.Duration
	var cur interval
	for i, iv := range clip {
		switch {
		case i == 0:
			cur = iv
		case !iv.start.After(cur.end):
			if iv.end.After(cur.end) {
				cur.end = iv.end
			}
		default:
			total += cur.end.Sub(cur.start)
			cur = iv
		}
	}
	if len(clip) > 0 {
		total += cur.end.Sub(cur.start)
	}
	return total
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval its child spans cover, minus the time the program reports
// inside it.
func selfTimes(spans []span) []time.Duration {
	children := make([][]interval, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], interval{s.start, s.end})
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.end.Sub(s.start) - covered(s.start, s.end, children[i]) - s.inner
	}
	return self
}

// layerKey names one row of the per-layer aggregation.
type layerKey struct{ layer, class string }

// layerSum accumulates the spans of one layer and request class.
type layerSum struct {
	n           int
	total, self time.Duration
}

func (s layerSum) meanMS() float64     { return s.mean(s.total) }
func (s layerSum) meanSelfMS() float64 { return s.mean(s.self) }

func (s layerSum) mean(d time.Duration) float64 {
	if s.n == 0 {
		return 0
	}
	return ms(d) / float64(s.n)
}

// aggregate sums durations and self times per layer and class. Spans that
// no client request encloses (set-up traffic) have no class and are left
// out.
func aggregate(spans []span) map[layerKey]layerSum {
	self := selfTimes(spans)
	out := map[layerKey]layerSum{}
	for i, s := range spans {
		if s.class == "" {
			continue
		}
		k := layerKey{s.layer, s.class}
		a := out[k]
		a.n++
		a.total += s.end.Sub(s.start)
		a.self += self[i]
		out[k] = a
	}
	return out
}
