// This file adds the registry's third metric kind: fixed-bucket
// histograms with atomic counters, for distributions the counters
// cannot express — window wall times, iterations, residuals. Observe
// is two atomic adds plus a binary search over a small immutable bound
// slice; rendering (Prometheus exposition, quantile summaries) walks
// the counters at read time.

package obs

import (
	"math"
	"sort"
	"sync/atomic"
)

// Histogram is a fixed-bucket distribution metric. Bucket b counts
// observations <= Bounds[b]; one extra overflow bucket counts the
// rest (+Inf). The zero value is not usable; construct with
// NewHistogram. All methods are safe for concurrent use.
type Histogram struct {
	bounds []float64 // ascending, strictly increasing upper bounds
	counts []atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
	count  atomic.Int64
}

// NewHistogram creates a histogram over the given ascending bucket
// upper bounds (they are copied, sorted, and deduplicated). At least
// one finite bound is required; the +Inf overflow bucket is implicit.
func NewHistogram(bounds []float64) *Histogram {
	bs := make([]float64, 0, len(bounds))
	bs = append(bs, bounds...)
	sort.Float64s(bs)
	// Deduplicate and drop non-finite bounds; +Inf is implicit.
	out := bs[:0]
	for _, b := range bs {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			continue
		}
		if len(out) == 0 || b > out[len(out)-1] {
			out = append(out, b)
		}
	}
	if len(out) == 0 {
		out = append(out, 1)
	}
	return &Histogram{bounds: out, counts: make([]atomic.Int64, len(out)+1)}
}

// ExponentialBuckets returns n bounds start, start*factor,
// start*factor^2, ... — the shape latency distributions want.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := 0; i < n; i++ {
		out[i] = v
		v *= factor
	}
	return out
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		s := math.Float64frombits(old) + v
		if h.sum.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// Bounds returns the finite bucket upper bounds (read-only; do not
// modify).
func (h *Histogram) Bounds() []float64 { return h.bounds }

// HistogramSnapshot is a point-in-time copy of a histogram's state.
// Snapshots answer quantile queries by interpolation.
type HistogramSnapshot struct {
	// Bounds are the finite bucket upper bounds.
	Bounds []float64
	// Counts[b] is the per-bucket (non-cumulative) count;
	// Counts[len(Bounds)] is the +Inf overflow bucket.
	Counts []int64
	// Sum is the sum of observed values.
	Sum float64
	// Count is the number of observations.
	Count int64
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Sum:    math.Float64frombits(h.sum.Load()),
		Count:  h.count.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Quantile estimates the q-th quantile (0..1) by linear interpolation
// within the containing bucket; observations in the overflow bucket
// clamp to the highest finite bound. Returns 0 when the snapshot is
// empty.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum int64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		if float64(cum+c) >= rank {
			if i >= len(s.Bounds) {
				// Overflow bucket: no upper bound to interpolate toward.
				return s.Bounds[len(s.Bounds)-1]
			}
			hi := s.Bounds[i]
			frac := (rank - float64(cum)) / float64(c)
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	return s.Bounds[len(s.Bounds)-1]
}

// HistogramSummary is the condensed form of a distribution the /status
// endpoint and reports expose: count, sum, and interpolated tail
// quantiles.
type HistogramSummary struct {
	// Count is the number of observations.
	Count int64 `json:"count"`
	// Sum is the sum of observed values.
	Sum float64 `json:"sum"`
	// P50, P95, and P99 are interpolated quantile estimates.
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

// Summary condenses the histogram's current state to
// count/sum/p50/p95/p99.
func (h *Histogram) Summary() HistogramSummary {
	s := h.Snapshot()
	return HistogramSummary{Count: s.Count, Sum: s.Sum,
		P50: s.Quantile(0.50), P95: s.Quantile(0.95), P99: s.Quantile(0.99)}
}

// SolveHistograms bundles the three per-window distributions of a
// solve: wall time, iterations, and residual at convergence. The
// journal's reducer observes them from window_done events; RegisterOn
// exposes the histograms for scraping.
type SolveHistograms struct {
	// WindowWall is the per-window solve wall time in seconds.
	WindowWall *Histogram
	// Iterations is the per-window PageRank iteration count.
	Iterations *Histogram
	// Residual is the final L1 residual of converged windows.
	Residual *Histogram
}

// NewSolveHistograms creates the bundle with its default buckets:
// wall times 10µs..~84s (exponential), iterations 1..1024 (powers of
// two), residuals 1e-12..1e-2 (decades).
func NewSolveHistograms() *SolveHistograms {
	return &SolveHistograms{
		WindowWall: NewHistogram(ExponentialBuckets(1e-5, 2, 24)),
		Iterations: NewHistogram(ExponentialBuckets(1, 2, 11)),
		Residual:   NewHistogram(ExponentialBuckets(1e-12, 10, 11)),
	}
}

// RegisterOn publishes the three histograms on r under the prefix
// (e.g. "pmpr_window"), producing <prefix>_wall_seconds,
// <prefix>_iterations, and <prefix>_residual.
func (s *SolveHistograms) RegisterOn(r *Registry, prefix string) {
	r.RegisterHistogram(prefix+"_wall_seconds", "per-window solve wall time", s.WindowWall)
	r.RegisterHistogram(prefix+"_iterations", "per-window PageRank iterations", s.Iterations)
	r.RegisterHistogram(prefix+"_residual", "final L1 residual of converged windows", s.Residual)
}
