package main

import (
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie above a percentile for it to be
// reported as that percentile: p99 needs 1000 samples, p50 needs 21.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (sorted in place)
// and the quantile the value stands for. That is q when at least
// minBeyond samples lie above it; otherwise the value is taken at the
// highest rank that still has them, and the returned quantile says
// which. An empty xs yields (0, 0).
func percentile(xs []float64, q float64) (v, reported float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	slices.Sort(xs)
	rank := max(int(math.Ceil(q*float64(n)))-1, 0)
	reported = q
	if limit := n - 1 - minBeyond; rank > limit {
		rank = max(limit, 0)
		reported = float64(rank+1) / float64(n)
	}
	return xs[rank], reported
}

// median returns the middle of xs (the mean of the middle two for an
// even count), sorting xs in place; 0 for an empty xs.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	slices.Sort(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func micros(d time.Duration) float64 { return float64(d) / 1e3 }

// agg aggregates the calls of one call site: how many, and their total
// time.
type agg struct {
	calls int64
	ns    int64
}

func (a *agg) observe(d time.Duration) { a.add(1, d) }

func (a *agg) add(calls int, d time.Duration) {
	a.calls += int64(calls)
	a.ns += int64(d)
}

// per returns the mean time per call in ns.
func (a *agg) per() float64 { return ratio(float64(a.ns), float64(a.calls)) }
