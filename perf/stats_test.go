package main

import (
	"testing"
	"time"
)

func TestSummarize(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so summarize must sort
		}
		return xs
	}
	for _, tc := range []struct {
		name      string
		xs        []float64
		p50, p99  float64
		supported float64
	}{
		{"empty", nil, 0, 0, 0},
		{"one", []float64{7}, 7, 7, 0},
		{"19 samples support nothing", ramp(19), 10, 19, 0},
		{"20 samples support p50", ramp(20), 10, 20, 50},
		{"100 samples support p90", ramp(100), 50, 99, 90},
		{"999 samples still only p90", ramp(999), 500, 990, 90},
		{"1000 samples support p99", ramp(1000), 500, 990, 99},
		{"10000 samples support p99.9", ramp(10000), 5000, 9900, 99.9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := summarize(tc.xs)
			if d.N != len(tc.xs) || d.P50 != tc.p50 || d.P99 != tc.p99 || d.Supported != tc.supported {
				t.Errorf("summarize = %+v, want n=%d p50=%v p99=%v supported=%v", d, len(tc.xs), tc.p50, tc.p99, tc.supported)
			}
		})
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

func TestSelfTimes(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	sp := func(id, parent uint64, from, to int) span {
		return span{ID: id, Parent: parent, Start: at(from), End: at(to)}
	}
	spans := []span{
		sp(1, 0, 0, 10),
		sp(2, 1, 2, 4),  // overlaps 3 on [3, 4]: counted once
		sp(3, 1, 3, 6),  //
		sp(4, 1, 8, 12), // runs past its parent: clipped to [8, 10]
		sp(5, 3, 4, 5),  // grandchild: 3's child, not 1's
		sp(6, 0, 20, 21),
	}
	want := map[uint64]time.Duration{1: 4, 2: 2, 3: 2, 4: 4, 5: 1, 6: 1}
	got := selfTimes(spans)
	for id, ms := range want {
		if got[id] != ms*time.Millisecond {
			t.Errorf("self time of span %d = %v, want %v", id, got[id], ms*time.Millisecond)
		}
	}
}

func TestCombineRounds(t *testing.T) {
	round := func(p50, p99 float64, failed, n int) stepStats {
		return stepStats{Rate: 100, Seconds: 1, Offered: n, Sent: n, Failed: failed, Achieved: float64(n),
			Latency: dist{N: n, P50: p50, P99: p99, Supported: supportedPercentile(n)}, LateP99: p50 / 10}
	}
	c := combineRounds([]stepStats{round(1, 10, 0, 1000), round(9, 90, 2, 100), round(2, 20, 1, 1000)})
	if c.Offered != 2100 || c.Failed != 3 || c.Latency.N != 2100 || c.Seconds != 3 {
		t.Errorf("counts not summed: %+v", c)
	}
	if c.Latency.P50 != 2 || c.Latency.P99 != 20 || c.Achieved != 1000 || c.LateP99 != 0.2 {
		t.Errorf("rates and percentiles are not the rounds' medians: %+v", c)
	}
	if c.Latency.Supported != 90 {
		t.Errorf("supported percentile = %v, want the weakest round's 90", c.Latency.Supported)
	}
}
