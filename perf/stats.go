package main

import (
	"math"
	"sort"
	"time"
)

// dist summarizes a latency sample: its size, median and p99, and the
// highest percentile that still has at least ten samples beyond it (a
// p99 over fewer than 1000 samples is a guess about a handful of
// requests, and the table says so).
type dist struct {
	N         int     `json:"n"`
	P50       float64 `json:"p50"`
	P99       float64 `json:"p99"`
	Supported float64 `json:"supported_pct"`
}

// summarize computes the distribution of xs without reordering it.
func summarize(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return dist{N: len(s), P50: quantile(s, 0.50), P99: quantile(s, 0.99), Supported: supportedPercentile(len(s))}
}

// quantile returns the nearest-rank q-quantile of an ascending sample:
// the smallest value with at least q of the sample at or below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// supportedPercentile returns the highest of p50, p90, p99 and p99.9
// whose nearest-rank position leaves at least ten samples beyond it, or
// 0 when even the median does not.
func supportedPercentile(n int) float64 {
	best := 0.0
	for _, perMille := range []int{500, 900, 990, 999} {
		rank := (perMille*n + 999) / 1000
		if n-rank >= 10 {
			best = float64(perMille) / 10
		}
	}
	return best
}

// median returns the middle of xs (the mean of the two middle values
// for an even count), without reordering it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// selfTimes returns each span's duration minus the part of its interval
// that its direct children cover, keyed by span id. Children are
// clipped to the parent's interval and overlapping children are counted
// once.
func selfTimes(spans []span) map[uint64]time.Duration {
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.End.Sub(s.Start) - covered(s, kids[s.ID])
	}
	return out
}

// covered returns the length of the union of the children's intervals
// within the parent's.
func covered(parent span, children []span) time.Duration {
	type interval struct{ a, b time.Time }
	ivs := make([]interval, 0, len(children))
	for _, c := range children {
		a, b := c.Start, c.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, interval{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur interval
	for i, iv := range ivs {
		switch {
		case i == 0:
			cur = iv
		case iv.a.After(cur.b):
			total += cur.b.Sub(cur.a)
			cur = iv
		case iv.b.After(cur.b):
			cur.b = iv.b
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}
