package gen

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"pmpr/internal/analysis"
	"pmpr/internal/events"
)

func TestAllProfilesGenerate(t *testing.T) {
	for _, name := range Names() {
		d, ok := Get(name)
		if !ok {
			t.Fatalf("profile %s missing", name)
		}
		l, err := d.Generate(0.05, 1)
		if err != nil {
			t.Fatalf("%s: Generate: %v", name, err)
		}
		if l.Len() == 0 {
			t.Fatalf("%s: empty log", name)
		}
		// Sorted, in-range, and spanning roughly the declared period.
		prev := int64(-1)
		for i := 0; i < l.Len(); i++ {
			e := l.At(i)
			if e.T < prev {
				t.Fatalf("%s: unsorted at %d", name, i)
			}
			prev = e.T
			if e.U < 0 || e.U >= l.NumVertices() || e.V < 0 || e.V >= l.NumVertices() {
				t.Fatalf("%s: vertex out of range at %d", name, i)
			}
		}
		_, last, _ := l.TimeRange()
		span := int64(d.SpanDays) * Day
		if last > span {
			t.Fatalf("%s: last event %d beyond span %d", name, last, span)
		}
		if last < span/2 {
			t.Fatalf("%s: last event %d covers under half the span %d", name, last, span)
		}
		if len(d.SlidingOffsets) == 0 || len(d.WindowDays) == 0 {
			t.Fatalf("%s: missing Table 1 parameter grid", name)
		}
	}
}

// TestEveryProfileRoundTripsBinary pins the binary reader's vertex
// budget against the generator: every profile declares more vertices
// than its events name, and each file it writes must still load.
func TestEveryProfileRoundTripsBinary(t *testing.T) {
	for _, name := range Names() {
		d, _ := Get(name)
		for _, scale := range []float64{0.001, 0.01, 0.2} {
			l, err := d.Generate(scale, 1)
			if err != nil {
				t.Fatalf("%s@%v: Generate: %v", name, scale, err)
			}
			var buf bytes.Buffer
			if err := events.WriteBinary(&buf, l); err != nil {
				t.Fatalf("%s@%v: WriteBinary: %v", name, scale, err)
			}
			got, err := events.ReadBinary(&buf)
			if err != nil {
				t.Fatalf("%s@%v: ReadBinary: %v", name, scale, err)
			}
			if got.NumVertices() != l.NumVertices() || !reflect.DeepEqual(got.Events(), l.Events()) {
				t.Fatalf("%s@%v: round trip changed the log", name, scale)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	d, _ := Get("wikitalk")
	a, err := d.Generate(0.03, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Generate(0.03, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Events(), b.Events()) {
		t.Fatal("same seed produced different logs")
	}
	c, err := d.Generate(0.03, 43)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Events(), c.Events()) {
		t.Fatal("different seeds produced identical logs")
	}
}

func TestScaleControlsSize(t *testing.T) {
	d, _ := Get("enron")
	small, _ := d.Generate(0.02, 1)
	large, _ := d.Generate(0.08, 1)
	if small.Len() >= large.Len() {
		t.Fatalf("scale did not grow the log: %d vs %d", small.Len(), large.Len())
	}
	if _, err := d.Generate(0, 1); err == nil {
		t.Fatal("zero scale accepted")
	}
	if _, err := d.Generate(-1, 1); err == nil {
		t.Fatal("negative scale accepted")
	}
}

func TestGetUnknown(t *testing.T) {
	if _, ok := Get("nope"); ok {
		t.Fatal("unknown profile found")
	}
}

// shapeStats summarizes a histogram: the peak-to-mean ratio and the
// ratio of last-quarter volume to first-quarter volume.
func shapeStats(t *testing.T, name string) (peakToMean, growthRatio float64) {
	t.Helper()
	d, _ := Get(name)
	l, err := d.Generate(0.1, 7)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	counts, _, _ := analysis.Histogram(l, 40)
	var sum, peak int64
	for _, c := range counts {
		sum += c
		if c > peak {
			peak = c
		}
	}
	mean := float64(sum) / float64(len(counts))
	var first, last int64
	q := len(counts) / 4
	for i := 0; i < q; i++ {
		first += counts[i]
		last += counts[len(counts)-1-i]
	}
	return float64(peak) / mean, float64(last+1) / float64(first+1)
}

func TestSpikyProfilesHavePeaks(t *testing.T) {
	// Enron and epinions are the spiky datasets of Fig. 4: their peak
	// bin must dwarf the mean. The growth datasets must be much
	// flatter.
	for _, name := range []string{"enron", "epinions"} {
		peak, _ := shapeStats(t, name)
		if peak < 4 {
			t.Errorf("%s: peak/mean = %v, want a pronounced spike (>= 4)", name, peak)
		}
	}
	for _, name := range []string{"wikitalk", "stackoverflow", "askubuntu"} {
		peak, _ := shapeStats(t, name)
		if peak > 4 {
			t.Errorf("%s: peak/mean = %v, growth profiles should be smooth (< 4)", name, peak)
		}
	}
}

func TestGrowthProfilesGrow(t *testing.T) {
	for _, name := range []string{"wikitalk", "stackoverflow", "askubuntu"} {
		_, growth := shapeStats(t, name)
		if growth < 2 {
			t.Errorf("%s: last/first quarter ratio = %v, want growth (>= 2)", name, growth)
		}
	}
	// Youtube is steady: closer to flat than the growth profiles.
	_, g := shapeStats(t, "youtube")
	if g > 4 {
		t.Errorf("youtube: ratio %v, want steady-ish", g)
	}
}

func TestBipartiteRespected(t *testing.T) {
	d, _ := Get("epinions")
	l, err := d.Generate(0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Determine the user/item boundary the generator used.
	nUsers := int32(float64(int32(float64(d.BaseVertices)*mathSqrt(0.05))) * d.UserFrac)
	for i := 0; i < l.Len(); i++ {
		e := l.At(i)
		if e.U >= nUsers {
			t.Fatalf("event %d: source %d is not a user (< %d)", i, e.U, nUsers)
		}
		if e.V < nUsers {
			t.Fatalf("event %d: target %d is not an item (>= %d)", i, e.V, nUsers)
		}
	}
}

func mathSqrt(x float64) float64 {
	// tiny helper so the test mirrors Generate's vertex scaling
	lo, hi := 0.0, x+1
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if mid*mid < x {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

func TestZipfSkew(t *testing.T) {
	z := newZipf(1000, 0.9)
	rng := rand.New(rand.NewSource(9))
	counts := make([]int, 1000)
	for i := 0; i < 200000; i++ {
		counts[z.sample(rng, 1000)]++
	}
	if counts[0] < counts[500]*5 {
		t.Fatalf("zipf not skewed: head %d vs mid %d", counts[0], counts[500])
	}
	// Prefix restriction must be respected.
	for i := 0; i < 1000; i++ {
		if v := z.sample(rng, 10); v >= 10 {
			t.Fatalf("sample %d outside limit 10", v)
		}
	}
}

func TestCustomProfile(t *testing.T) {
	d := Custom("sine", 5000, 500, 100, func(tau float64) float64 {
		if tau < 0.5 {
			return 0.1
		}
		return 1.0
	})
	l, err := d.Generate(1.0, 5)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if l.Len() != 5000 {
		t.Fatalf("len = %d", l.Len())
	}
	counts, _, _ := analysis.Histogram(l, 10)
	var firstHalf, secondHalf int64
	for i := 0; i < 5; i++ {
		firstHalf += counts[i]
		secondHalf += counts[5+i]
	}
	if secondHalf < firstHalf*5 {
		t.Fatalf("shape ignored: first=%d second=%d", firstHalf, secondHalf)
	}
	// Negative shape values are clamped, not fatal.
	neg := Custom("neg", 100, 50, 10, func(tau float64) float64 { return tau - 0.5 })
	if _, err := neg.Generate(1.0, 1); err != nil {
		t.Fatalf("negative-dipping shape rejected: %v", err)
	}
	// An all-negative shape is an error.
	bad := Custom("bad", 100, 50, 10, func(float64) float64 { return -1 })
	if _, err := bad.Generate(1.0, 1); err == nil {
		t.Fatal("non-positive shape accepted")
	}
}
