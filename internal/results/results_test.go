package results

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"testing"

	"pmpr/internal/events"
)

type memSource struct {
	spec    events.WindowSpec
	n       int32
	windows []WindowRanks
}

func (m memSource) SpecAndSize() (events.WindowSpec, int32) { return m.spec, m.n }
func (m memSource) WindowAt(i int) WindowRanks              { return m.windows[i] }

func randomSource(seed int64) memSource {
	rng := rand.New(rand.NewSource(seed))
	spec := events.WindowSpec{T0: -500, Delta: 100, Slide: 33, Count: 7}
	src := memSource{spec: spec, n: 50}
	for w := 0; w < spec.Count; w++ {
		wr := WindowRanks{
			Window:          w,
			Iterations:      rng.Intn(100),
			Converged:       rng.Intn(2) == 0,
			UsedPartialInit: rng.Intn(2) == 0,
		}
		for v := int32(0); v < src.n; v++ {
			if rng.Intn(3) == 0 {
				wr.Vertices = append(wr.Vertices, v)
				// Strictly positive: zero ranks are not representable in
				// the format (positive entries only).
				wr.Ranks = append(wr.Ranks, rng.Float64()/2+0.25)
			}
		}
		src.windows = append(src.windows, wr)
	}
	return src
}

func TestRoundTrip(t *testing.T) {
	src := randomSource(1)
	var buf bytes.Buffer
	if err := Write(&buf, src); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.Spec != src.spec || got.NumVertices != src.n {
		t.Fatalf("header mismatch: %+v vs %+v", got.Spec, src.spec)
	}
	for w := range src.windows {
		if !reflect.DeepEqual(got.Windows[w], src.windows[w]) {
			t.Fatalf("window %d mismatch:\n got %+v\nwant %+v", w, got.Windows[w], src.windows[w])
		}
	}
}

// goldenSource is the series behind testdata/golden.pmrs:
// randomSource(6) with window 3 emptied and a few ranks at the ends of
// the float64 range. The file was written by the earlier encoder that
// wrote one 12-byte entry at a time.
func goldenSource() memSource {
	src := randomSource(6)
	src.windows[3].Vertices, src.windows[3].Ranks = nil, nil
	src.windows[1].Ranks[0] = math.SmallestNonzeroFloat64
	src.windows[1].Ranks[1] = math.Nextafter(math.SmallestNonzeroFloat64, 1)
	src.windows[5].Ranks[2] = math.MaxFloat64
	return src
}

// TestGoldenBytes pins the format to committed bytes: Write must
// reproduce testdata/golden.pmrs exactly, and Read must decode it to
// the series it was written from.
func TestGoldenBytes(t *testing.T) {
	want, err := os.ReadFile("testdata/golden.pmrs")
	if err != nil {
		t.Fatal(err)
	}
	src := goldenSource()
	var empty, bothFlags bool
	for _, wr := range src.windows {
		empty = empty || len(wr.Vertices) == 0
		bothFlags = bothFlags || (wr.Converged && wr.UsedPartialInit && len(wr.Vertices) > 0)
	}
	if !empty || !bothFlags {
		t.Fatalf("golden source lacks an empty window (%v) or a non-empty window with both flags (%v)", empty, bothFlags)
	}
	var buf bytes.Buffer
	if err := Write(&buf, src); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("Write produced %d bytes that differ from the golden file's %d", buf.Len(), len(want))
	}
	got, err := Read(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if wantSeries := (&Series{Spec: src.spec, NumVertices: src.n, Windows: src.windows}); !reflect.DeepEqual(got, wantSeries) {
		t.Fatalf("Read decoded the golden file to\n%+v,\nwant %+v", got, wantSeries)
	}
}

// allocatedBy returns the heap bytes f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// readAllocBudget bounds what Read may allocate for an input of size
// bytes, accepted or rejected: a constant per input byte (an empty
// window is 13 bytes that decode to a WindowRanks in a doubling
// slice) plus one chunk, which is paid twice before its bytes are
// known to exist (the read buffer and the window's first slices), plus
// the bufio buffer and the header.
func readAllocBudget(size int) uint64 {
	return uint64(32*size + 2*entrySize*chunkEntries + 16<<10)
}

// TestReadOverdeclaredWindowFailsCheaply feeds Read a window whose
// header declares 2²⁸−1 entries but which carries one entry's 12
// bytes: it must fail as a truncation, allocating well under 1 MB.
func TestReadOverdeclaredWindowFailsCheaply(t *testing.T) {
	raw := writeRaw(t, oneWindowSource(4, WindowRanks{Vertices: []int32{1}, Ranks: []float64{1}}))
	binary.LittleEndian.PutUint32(raw[len(raw)-entrySize-4:], 1<<28-1)
	var err error
	alloc := allocatedBy(func() { _, err = Read(bytes.NewReader(raw)) })
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("Read = %v, want a truncation error", err)
	}
	if alloc >= 1<<20 || alloc > readAllocBudget(len(raw)) {
		t.Fatalf("Read allocated %d bytes for a %d-byte input", alloc, len(raw))
	}
}

func TestDense(t *testing.T) {
	wr := WindowRanks{Vertices: []int32{2, 5}, Ranks: []float64{0.25, 0.75}}
	d := wr.Dense(8)
	if d[2] != 0.25 || d[5] != 0.75 || d[0] != 0 {
		t.Fatalf("Dense = %v", d)
	}
}

func TestRankLookup(t *testing.T) {
	wr := WindowRanks{Vertices: []int32{2, 5, 9}, Ranks: []float64{0.25, 0.5, 0.25}}
	if r, ok := wr.Rank(5); !ok || r != 0.5 {
		t.Fatalf("Rank(5) = %v, %v", r, ok)
	}
	if r, ok := wr.Rank(9); !ok || r != 0.25 {
		t.Fatalf("Rank(9) = %v, %v", r, ok)
	}
	for _, missing := range []int32{0, 3, 10, -1} {
		if r, ok := wr.Rank(missing); ok || r != 0 {
			t.Fatalf("Rank(%d) = %v, %v; want 0, false", missing, r, ok)
		}
	}
	if wr.Len() != 3 {
		t.Fatalf("Len = %d", wr.Len())
	}
	var visited []int32
	wr.ForEach(func(v int32, _ float64) { visited = append(visited, v) })
	if !reflect.DeepEqual(visited, []int32{2, 5, 9}) {
		t.Fatalf("ForEach order = %v", visited)
	}
}

func TestSeriesIsSource(t *testing.T) {
	src := randomSource(4)
	var buf bytes.Buffer
	if err := Write(&buf, src); err != nil {
		t.Fatalf("Write: %v", err)
	}
	s, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	// A decoded series is itself a SeriesSource: re-serializing it must
	// produce an equal series.
	var buf2 bytes.Buffer
	if err := Write(&buf2, s); err != nil {
		t.Fatalf("re-Write: %v", err)
	}
	s2, err := Read(&buf2)
	if err != nil {
		t.Fatalf("re-Read: %v", err)
	}
	if !reflect.DeepEqual(s, s2) {
		t.Fatal("series not stable under re-serialization")
	}
	if s.Window(2) == nil || s.Window(2).Window != 2 {
		t.Fatal("Window accessor mislabeled")
	}
}

func TestRanksPreservedBitExact(t *testing.T) {
	src := memSource{
		spec: events.WindowSpec{T0: 0, Delta: 1, Slide: 1, Count: 1},
		n:    3,
		windows: []WindowRanks{{
			Window:   0,
			Vertices: []int32{0, 1},
			Ranks:    []float64{math.Nextafter(0.1, 1), 1e-300},
		}},
	}
	var buf bytes.Buffer
	if err := Write(&buf, src); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	for i, r := range got.Windows[0].Ranks {
		if r != src.windows[0].Ranks[i] {
			t.Fatalf("rank %d not bit-exact: %v vs %v", i, r, src.windows[0].Ranks[i])
		}
	}
}

func TestReadRejectsCorrupt(t *testing.T) {
	src := randomSource(2)
	var buf bytes.Buffer
	if err := Write(&buf, src); err != nil {
		t.Fatalf("Write: %v", err)
	}
	full := buf.Bytes()
	if _, err := Read(bytes.NewReader([]byte("XXXXetc"))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := Read(bytes.NewReader(full[:len(full)-3])); err == nil {
		t.Error("truncated file accepted")
	}
	bad := append([]byte(nil), full...)
	bad[4] = 0x7F // version
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Error("bad version accepted")
	}
}

// TestReadTruncatedAtEveryOffset cuts the golden file at every offset
// past its magic. Each cut, including those at a record boundary, must
// fail as io.ErrUnexpectedEOF and never as a bare io.EOF, which a
// caller could take for a clean end of input.
func TestReadTruncatedAtEveryOffset(t *testing.T) {
	full, err := os.ReadFile("testdata/golden.pmrs")
	if err != nil {
		t.Fatalf("reading golden file: %v", err)
	}
	for cut := len(magic); cut < len(full); cut++ {
		_, err := Read(bytes.NewReader(full[:cut]))
		if !errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
			t.Fatalf("cut at %d of %d bytes: Read = %v, want io.ErrUnexpectedEOF and not io.EOF", cut, len(full), err)
		}
	}
}

// writeRaw serializes src without any validation, so tests can craft
// structurally invalid files that Write itself would refuse.
func writeRaw(t *testing.T, src memSource) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(magic)
	hdr := make([]byte, 4+8*3+4+4)
	binary.LittleEndian.PutUint32(hdr[0:], version)
	binary.LittleEndian.PutUint64(hdr[4:], uint64(src.spec.T0))
	binary.LittleEndian.PutUint64(hdr[12:], uint64(src.spec.Delta))
	binary.LittleEndian.PutUint64(hdr[20:], uint64(src.spec.Slide))
	binary.LittleEndian.PutUint32(hdr[28:], uint32(src.spec.Count))
	binary.LittleEndian.PutUint32(hdr[32:], uint32(src.n))
	buf.Write(hdr)
	for _, wr := range src.windows {
		whdr := make([]byte, 13)
		binary.LittleEndian.PutUint32(whdr[0:], uint32(wr.Window))
		binary.LittleEndian.PutUint32(whdr[4:], uint32(wr.Iterations))
		binary.LittleEndian.PutUint32(whdr[9:], uint32(len(wr.Vertices)))
		buf.Write(whdr)
		rec := make([]byte, 12)
		for j, v := range wr.Vertices {
			binary.LittleEndian.PutUint32(rec[0:], uint32(v))
			binary.LittleEndian.PutUint64(rec[4:], math.Float64bits(wr.Ranks[j]))
			buf.Write(rec)
		}
	}
	return buf.Bytes()
}

func oneWindowSource(n int32, wr WindowRanks) memSource {
	return memSource{
		spec:    events.WindowSpec{T0: 0, Delta: 10, Slide: 5, Count: 1},
		n:       n,
		windows: []WindowRanks{wr},
	}
}

func TestReadRejectsStructuralViolations(t *testing.T) {
	cases := []struct {
		name string
		src  memSource
	}{
		{"vertex id at NumVertices", oneWindowSource(4,
			WindowRanks{Vertices: []int32{1, 4}, Ranks: []float64{0.5, 0.5}})},
		{"vertex id far out of range", oneWindowSource(4,
			WindowRanks{Vertices: []int32{1 << 20}, Ranks: []float64{1}})},
		{"negative vertex id", oneWindowSource(4,
			WindowRanks{Vertices: []int32{-3}, Ranks: []float64{1}})},
		{"duplicate vertex", oneWindowSource(4,
			WindowRanks{Vertices: []int32{2, 2}, Ranks: []float64{0.5, 0.5}})},
		{"unsorted vertices", oneWindowSource(4,
			WindowRanks{Vertices: []int32{3, 1}, Ranks: []float64{0.5, 0.5}})},
		{"NaN rank", oneWindowSource(4,
			WindowRanks{Vertices: []int32{1}, Ranks: []float64{math.NaN()}})},
		{"zero rank", oneWindowSource(4,
			WindowRanks{Vertices: []int32{1}, Ranks: []float64{0}})},
		{"negative rank", oneWindowSource(4,
			WindowRanks{Vertices: []int32{1}, Ranks: []float64{-0.5}})},
		{"mislabeled window", oneWindowSource(4,
			WindowRanks{Window: 3, Vertices: []int32{1}, Ranks: []float64{1}})},
		{"negative NumVertices", memSource{
			spec: events.WindowSpec{T0: 0, Delta: 10, Slide: 5, Count: 0},
			n:    -7,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw := writeRaw(t, tc.src)
			s, err := Read(bytes.NewReader(raw))
			if err == nil {
				t.Fatalf("accepted corrupt file: %+v", s)
			}
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("error is not a *CorruptError: %v", err)
			}
			// The rejection must also not be reproducible via Write: the
			// same violation fails at encode time.
			if err := Write(&bytes.Buffer{}, tc.src); err == nil {
				t.Fatal("Write accepted what Read rejects")
			}
		})
	}
}

func TestReadRejectsReorderedWindows(t *testing.T) {
	src := memSource{
		spec: events.WindowSpec{T0: 0, Delta: 10, Slide: 5, Count: 2},
		n:    4,
		windows: []WindowRanks{
			{Window: 1, Vertices: []int32{1}, Ranks: []float64{1}},
			{Window: 0, Vertices: []int32{2}, Ranks: []float64{1}},
		},
	}
	raw := writeRaw(t, src)
	if _, err := Read(bytes.NewReader(raw)); err == nil {
		t.Fatal("reordered windows accepted")
	}
	if err := Write(&bytes.Buffer{}, src); err == nil {
		t.Fatal("Write accepted reordered windows")
	}
	var ce *CorruptError
	err := Write(&bytes.Buffer{}, src)
	if !errors.As(err, &ce) || ce.Window != 0 {
		t.Fatalf("want *CorruptError at window 0, got %v", err)
	}
}

func TestDenseSafeAfterRead(t *testing.T) {
	// A validated series can be densified without any out-of-range
	// write: this is the Dense-panic regression the decoder now guards.
	src := randomSource(5)
	var buf bytes.Buffer
	if err := Write(&buf, src); err != nil {
		t.Fatalf("Write: %v", err)
	}
	s, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	for i := range s.Windows {
		d := s.Window(i).Dense(s.NumVertices)
		if int32(len(d)) != s.NumVertices {
			t.Fatalf("window %d dense length %d", i, len(d))
		}
	}
}

func TestWriteRejectsMismatchedLengths(t *testing.T) {
	src := memSource{
		spec:    events.WindowSpec{T0: 0, Delta: 1, Slide: 1, Count: 1},
		n:       3,
		windows: []WindowRanks{{Vertices: []int32{0}, Ranks: []float64{0.1, 0.2}}},
	}
	var buf bytes.Buffer
	if err := Write(&buf, src); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
}
