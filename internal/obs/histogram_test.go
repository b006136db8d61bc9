package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestHistogramBucketPlacement(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	// Bucket b counts observations <= Bounds[b]; the boundary value
	// itself lands in the lower bucket (Prometheus le semantics).
	h.Observe(0.5) // <= 1
	h.Observe(1)   // <= 1 (boundary)
	h.Observe(1.5) // <= 2
	h.Observe(4)   // <= 4 (boundary)
	h.Observe(100) // overflow
	s := h.Snapshot()
	want := []int64{2, 1, 1, 1}
	for i, c := range s.Counts {
		if c != want[i] {
			t.Fatalf("bucket %d count = %d, want %d (all: %v)", i, c, want[i], s.Counts)
		}
	}
	if s.Count != 5 {
		t.Fatalf("Count = %d, want 5", s.Count)
	}
	if got := s.Sum; math.Abs(got-107) > 1e-9 {
		t.Fatalf("Sum = %g, want 107", got)
	}
}

func TestHistogramBoundsNormalized(t *testing.T) {
	h := NewHistogram([]float64{4, 1, 2, 2, math.Inf(1), math.NaN()})
	if got := h.Bounds(); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 4 {
		t.Fatalf("Bounds = %v, want [1 2 4] (sorted, deduped, finite)", got)
	}
	// No finite bounds at all still yields a usable histogram.
	h2 := NewHistogram(nil)
	if len(h2.Bounds()) == 0 {
		t.Fatal("NewHistogram(nil) produced no buckets")
	}
	h2.Observe(0.5)
	if h2.Snapshot().Count != 1 {
		t.Fatal("degenerate histogram dropped the observation")
	}
}

func TestBucketGenerators(t *testing.T) {
	exp := ExponentialBuckets(1, 2, 4)
	if want := []float64{1, 2, 4, 8}; len(exp) != 4 || exp[0] != want[0] || exp[3] != want[3] {
		t.Fatalf("ExponentialBuckets = %v, want %v", exp, want)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{10, 20, 30, 40})
	// 100 observations uniform over the 10..20 bucket: p50 interpolates
	// to the bucket midpoint.
	for i := 0; i < 100; i++ {
		h.Observe(15)
	}
	s := h.Snapshot()
	if got := s.Quantile(0.5); math.Abs(got-15) > 0.5 {
		t.Fatalf("p50 = %g, want ~15", got)
	}
	if got := s.Quantile(0); got < 10 || got > 11 {
		t.Fatalf("p0 = %g, want bucket lower edge ~10", got)
	}
	// Overflow observations clamp to the highest finite bound.
	h2 := NewHistogram([]float64{1})
	h2.Observe(1000)
	if got := h2.Snapshot().Quantile(0.99); got != 1 {
		t.Fatalf("overflow quantile = %g, want clamp to 1", got)
	}
	// Empty snapshot answers 0.
	if got := (HistogramSnapshot{}).Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %g, want 0", got)
	}
	// Out-of-range q values clamp instead of panicking.
	if got := s.Quantile(-1); got < 10 {
		t.Fatalf("q=-1 gave %g", got)
	}
	if got := s.Quantile(2); got > 20 {
		t.Fatalf("q=2 gave %g", got)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram(ExponentialBuckets(1, 2, 10))
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(1 + (g+i)%512))
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*per {
		t.Fatalf("Count = %d, want %d", s.Count, goroutines*per)
	}
	var bucketTotal int64
	for _, c := range s.Counts {
		bucketTotal += c
	}
	if bucketTotal != s.Count {
		t.Fatalf("bucket counts sum to %d, Count is %d", bucketTotal, s.Count)
	}
}

func TestRegistryWritePromHistogram(t *testing.T) {
	r := NewRegistry()
	h := NewHistogram([]float64{0.1, 1, 10})
	r.RegisterHistogram("pmpr_test_seconds", "test latencies", h)
	h.Observe(0.0625)
	h.Observe(0.5)
	h.Observe(0.5)
	h.Observe(100)
	var buf bytes.Buffer
	r.WriteProm(&buf)
	out := buf.String()
	for _, want := range []string{
		"# TYPE pmpr_test_seconds histogram",
		`pmpr_test_seconds_bucket{le="0.1"} 1`,
		`pmpr_test_seconds_bucket{le="1"} 3`,
		`pmpr_test_seconds_bucket{le="10"} 3`,
		`pmpr_test_seconds_bucket{le="+Inf"} 4`,
		"pmpr_test_seconds_sum 101.0625",
		"pmpr_test_seconds_count 4",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("Prometheus exposition missing %q:\n%s", want, out)
		}
	}
	// The cumulative bucket lines must appear in ascending-bound order.
	i1 := strings.Index(out, `le="0.1"`)
	i2 := strings.Index(out, `le="1"`)
	i3 := strings.Index(out, `le="+Inf"`)
	if !(i1 < i2 && i2 < i3) {
		t.Fatalf("bucket lines out of order:\n%s", out)
	}
}

func TestSolveHistogramsRegisterOn(t *testing.T) {
	sh := NewSolveHistograms()
	sh.WindowWall.Observe(0.02)
	sh.Iterations.Observe(12)
	sh.Residual.Observe(3e-9)
	r := NewRegistry()
	sh.RegisterOn(r, "pmpr_window")
	var buf bytes.Buffer
	r.WriteProm(&buf)
	out := buf.String()
	for _, name := range []string{
		"pmpr_window_wall_seconds", "pmpr_window_iterations", "pmpr_window_residual",
	} {
		if !strings.Contains(out, "# TYPE "+name+" histogram") {
			t.Fatalf("missing histogram %s in exposition:\n%s", name, out)
		}
		if !strings.Contains(out, name+"_count 1") {
			t.Fatalf("%s_count != 1:\n%s", name, out)
		}
	}
}
