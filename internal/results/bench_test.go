package results

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"pmpr/internal/events"
)

// benchShape is the shape of one of perf/'s .pmrs series: windows,
// vertex universe, and per-window entry counts drawn uniformly from
// [lo, hi) except for one window of exactly peak entries.
type benchShape struct {
	name         string
	windows      int
	n            int32
	lo, hi, peak int
}

// benchShapes are the series of perf/'s two inputs: overlap (wikitalk,
// 90-day windows sliding 3 days: ~935 entries, at most 2,033) and
// short (stackoverflow, 10-day windows sliding 1 day: ~34 entries, at
// most 98).
var benchShapes = []benchShape{
	{name: "overlap", windows: 633, n: 8018, lo: 72, hi: 1798, peak: 2033},
	{name: "short", windows: 2598, n: 4825, lo: 2, hi: 66, peak: 98},
}

// shapedSource draws a series of shape sh. Like a solved series, about
// half of each window's ranks repeat one of a few values (vertices
// that see the same in-edges share a rank), the rest are spread.
func shapedSource(sh benchShape) memSource {
	rng := rand.New(rand.NewSource(1))
	src := memSource{
		spec: events.WindowSpec{T0: 0, Delta: 100, Slide: 10, Count: sh.windows},
		n:    sh.n,
	}
	tied := []float64{0.15, 0.2, 0.25, 0.4}
	for w := 0; w < sh.windows; w++ {
		k := sh.lo + rng.Intn(sh.hi-sh.lo)
		if w == sh.windows/2 {
			k = sh.peak
		}
		wr := WindowRanks{Window: w, Iterations: 20, Converged: true, UsedPartialInit: w%10 != 0}
		perm := rng.Perm(int(sh.n))[:k]
		for _, v := range perm {
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
		src.windows = append(src.windows, wr)
	}
	return src
}

var benchSink *Series

// BenchmarkWrite encodes each shape's series; bytes/s is the encoded
// size.
func BenchmarkWrite(b *testing.B) {
	for _, sh := range benchShapes {
		b.Run(sh.name, func(b *testing.B) {
			src := shapedSource(sh)
			var buf bytes.Buffer
			if err := Write(&buf, src); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(buf.Len()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := Write(&buf, src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRead decodes each shape's series from memory.
func BenchmarkRead(b *testing.B) {
	for _, sh := range benchShapes {
		b.Run(sh.name, func(b *testing.B) {
			var buf bytes.Buffer
			if err := Write(&buf, shapedSource(sh)); err != nil {
				b.Fatal(err)
			}
			in := buf.Bytes()
			b.SetBytes(int64(len(in)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := Read(bytes.NewReader(in))
				if err != nil {
					b.Fatal(err)
				}
				benchSink = s
			}
		})
	}
}
