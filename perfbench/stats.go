package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples a reported tail percentile must have above
// it in one run; fewer makes the tail a handful of outliers.
const minBeyond = 10

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the nearest-rank q-quantile of xs: the smallest sample
// with at least a share q of the samples at or below it. xs need not be
// sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// beyond returns how many of n samples lie above the nearest-rank
// q-quantile.
func beyond(n int, q float64) int {
	return n - max(1, int(math.Ceil(q*float64(n))))
}

// checkTail reports whether n samples support a tail at quantile q: q must
// sit above the median and leave at least minBeyond samples beyond it.
func checkTail(n int, q float64) error {
	if q <= 0.5 || q >= 1 {
		return fmt.Errorf("tail quantile %.3f is not above the median", q)
	}
	if b := beyond(n, q); b < minBeyond {
		return fmt.Errorf("tail p%g: %d of %d samples beyond it, want at least %d", 100*q, b, n, minBeyond)
	}
	return nil
}

// modeMargin is how far, as a share of the reads, each reported percentile
// must sit from the share of reads that are cache hits.
const modeMargin = 0.1

// checkModes verifies that on a workload whose reads mix cache hits and
// misses the median falls among the hits and the tail among the misses,
// each at least modeMargin of the reads away from the boundary, and that
// the two modes do not overlap (the slowest tenth of hits is faster than
// the fastest tenth of misses). A percentile near the boundary would jump
// between modes from run to run.
func checkModes(hits, misses []float64, p50q, tailq float64) error {
	n := len(hits) + len(misses)
	if len(hits) == 0 || len(misses) == 0 {
		return fmt.Errorf("need both hits and misses, have %d and %d", len(hits), len(misses))
	}
	h := float64(len(hits)) / float64(n)
	if p50q > h-modeMargin {
		return fmt.Errorf("median is within %.2f of the hit/miss boundary (hit share %.3f)", modeMargin, h)
	}
	if tailq < h+modeMargin {
		return fmt.Errorf("tail p%g is within %.2f of the hit/miss boundary (hit share %.3f)", 100*tailq, modeMargin, h)
	}
	if hi, lo := quantile(hits, 0.9), quantile(misses, 0.1); hi >= lo {
		return fmt.Errorf("hit and miss latencies overlap: hit p90 %.3f ms >= miss p10 %.3f ms", hi, lo)
	}
	return nil
}
