package serve

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"pmpr/internal/events"
	"pmpr/internal/results"
)

// benchSeries builds a larger synthetic series so the cold-path cost
// (top-k extraction + JSON rendering) is realistic: 64 windows over
// 20k vertices with ~2k positive entries each.
func benchSeries(windows int, n int32, entries int) *results.Series {
	rng := rand.New(rand.NewSource(42))
	s := &results.Series{
		Spec:        events.WindowSpec{T0: 0, Delta: 100, Slide: 10, Count: windows},
		NumVertices: n,
	}
	for w := 0; w < windows; w++ {
		wr := results.WindowRanks{Window: w, Iterations: 20, Converged: true}
		seen := make(map[int32]bool, entries)
		for len(seen) < entries {
			seen[rng.Int31n(n)] = true
		}
		verts := make([]int32, 0, entries)
		for v := range seen {
			verts = append(verts, v)
		}
		sortInt32(verts)
		var total float64
		ranks := make([]float64, entries)
		for i := range ranks {
			ranks[i] = rng.Float64() + 0.01
			total += ranks[i]
		}
		for i := range ranks {
			ranks[i] /= total
		}
		wr.Vertices, wr.Ranks = verts, ranks
		s.Windows = append(s.Windows, wr)
	}
	return s
}

func sortInt32(v []int32) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

func benchService(b *testing.B) (*Service, *RankStore) {
	b.Helper()
	st, err := NewStore(benchSeries(64, 20000, 2000))
	if err != nil {
		b.Fatal(err)
	}
	svc := NewService(0)
	svc.Publish(st)
	return svc, st
}

// BenchmarkTopKCold measures the uncached query path: extract the
// precomputed top-k slice and render the JSON response with the
// production encoder. This is what every cache miss pays.
func BenchmarkTopKCold(b *testing.B) {
	_, st := benchService(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := i % st.NumWindows()
		ranks, err := st.TopK(w, 100)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = encodeTopK(w, st.spec.Start(w), st.spec.End(w), 100, ranks)
	}
}

// BenchmarkTopKHit measures the cached fast path: the canonical key is
// already resolved, so the query is a map lookup returning shared
// bytes — 0 allocs/op (asserted by TestAnswerHitPathDoesNotAllocate).
// Compare against BenchmarkTopKCold for the cache speedup; the
// acceptance bar is >= 10x.
func BenchmarkTopKHit(b *testing.B) {
	svc, st := benchService(b)
	ctx := context.Background()
	key := canonicalKey(st.Generation(), "topk", 3, 100)
	compute := func(context.Context) ([]byte, error) {
		ranks, err := st.TopK(3, 100)
		if err != nil {
			return nil, err
		}
		return encodeTopK(3, st.spec.Start(3), st.spec.End(3), 100, ranks), nil
	}
	if _, _, err := svc.answer(ctx, key, compute); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, source, err := svc.answer(ctx, key, compute); err != nil || source != sourceHit {
			b.Fatalf("%q, %v", source, err)
		}
	}
}

// BenchmarkMoversCold measures the heaviest computed query: the linear
// merge of two sparse windows into a bounded heap of the best k by
// |delta|, and the rendering of the response.
func BenchmarkMoversCold(b *testing.B) {
	_, st := benchService(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := i % (st.NumWindows() - 1)
		movers, err := st.Movers(from, from+1, 50)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = encodeMovers(from, from+1, 50, movers)
	}
}

// BenchmarkTrajectoryCold measures an uncached trajectory: one binary
// search per window inside the vertex's span, and the rendering of
// every window's rank.
func BenchmarkTrajectoryCold(b *testing.B) {
	_, st := benchService(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := int32(i) % st.NumVertices()
		ranks, err := st.Trajectory(v)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = encodeTrajectory(v, st.spec, ranks)
	}
}

// storeShapes are the series of perf/'s two inputs: overlap (wikitalk,
// 633 90-day windows sliding 3 days, ~935 entries each, at most 2,033)
// and short (stackoverflow, 2,598 10-day windows sliding 1 day, ~34
// entries each, at most 98). Entry counts are uniform in [lo, hi)
// except one window of exactly peak entries.
var storeShapes = []struct {
	name         string
	windows      int
	n            int32
	lo, hi, peak int
}{
	{name: "overlap", windows: 633, n: 8018, lo: 72, hi: 1798, peak: 2033},
	{name: "short", windows: 2598, n: 4825, lo: 2, hi: 66, peak: 98},
}

// BenchmarkNewStore builds the serving layout of each shape's series.
// Like a solved series, about half of each window's ranks repeat one
// of a few values (vertices with the same in-edges share a rank).
func BenchmarkNewStore(b *testing.B) {
	for _, sh := range storeShapes {
		b.Run(sh.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			s := &results.Series{
				Spec:        events.WindowSpec{T0: 0, Delta: 100, Slide: 10, Count: sh.windows},
				NumVertices: sh.n,
			}
			tied := []float64{0.15, 0.2, 0.25, 0.4}
			for w := 0; w < sh.windows; w++ {
				k := sh.lo + rng.Intn(sh.hi-sh.lo)
				if w == sh.windows/2 {
					k = sh.peak
				}
				wr := results.WindowRanks{Window: w, Iterations: 20, Converged: true}
				for _, v := range rng.Perm(int(sh.n))[:k] {
					wr.Vertices = append(wr.Vertices, int32(v))
				}
				slices.Sort(wr.Vertices)
				for range wr.Vertices {
					r := tied[rng.Intn(len(tied))]
					if rng.Intn(2) == 0 {
						r += rng.ExpFloat64()
					}
					wr.Ranks = append(wr.Ranks, r/float64(k))
				}
				s.Windows = append(s.Windows, wr)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := NewStore(s)
				if err != nil {
					b.Fatal(err)
				}
				storeSink = st
			}
		})
	}
}

var storeSink *RankStore

// benchSink keeps the benchmarked bodies from being optimized away.
var benchSink []byte

// TestCachedQuerySpeedup encodes the serving-layer acceptance bar: a
// cached query must be at least 10x faster than the cold compute path.
// The measured margin is normally two orders of magnitude, so the
// assertion stays safe on noisy shared runners.
func TestCachedQuerySpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup measurement skipped in -short mode")
	}
	st, err := NewStore(benchSeries(64, 20000, 2000))
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(0)
	svc.Publish(st)
	ctx := context.Background()
	compute := func(context.Context) ([]byte, error) {
		ranks, err := st.TopK(3, 100)
		if err != nil {
			return nil, err
		}
		return encodeTopK(3, st.spec.Start(3), st.spec.End(3), 100, ranks), nil
	}
	cold := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := compute(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	key := canonicalKey(st.Generation(), "topk", 3, 100)
	if _, _, err := svc.answer(ctx, key, compute); err != nil {
		t.Fatal(err)
	}
	hit := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := svc.answer(ctx, key, compute); err != nil {
				b.Fatal(err)
			}
		}
	})
	coldNs, hitNs := float64(cold.NsPerOp()), float64(hit.NsPerOp())
	if hitNs <= 0 {
		t.Fatalf("degenerate hit measurement: %v", hit)
	}
	speedup := coldNs / hitNs
	t.Logf("cold %.0f ns/op, hit %.0f ns/op, speedup %.1fx", coldNs, hitNs, speedup)
	if speedup < 10 {
		t.Fatalf("cached query only %.1fx faster than cold, want >= 10x", speedup)
	}
}
