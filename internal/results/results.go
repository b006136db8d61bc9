// Package results serializes PageRank series for downstream analysis.
// The paper's premise is that "applications will have a downstream
// analysis that will depend on these vectors" (Sec. 2.2); this package
// gives those applications a compact on-disk interchange format.
//
// Format (little-endian): magic "PMRS", version uint32, then the
// window spec (t0, delta, slide int64; count uint32), numVertices
// int32, followed per window by: window index uint32, iterations
// uint32, flags uint8 (bit0 converged, bit1 partial init), entry count
// uint32, then entries of (vertex int32, rank float64) for positive
// ranks only — windows are sparse relative to the vertex universe.
//
// Decoding is adversarial: Read validates every structural invariant
// (vertex ids in range, entries strictly sorted, finite positive
// ranks, windows in sequential order) and rejects violations with a
// structured *CorruptError, so consumers like internal/serve can trust
// a decoded Series without re-checking — Dense never indexes out of
// bounds and binary searches over Vertices are always well-defined.
// Write enforces the same invariants so a producer bug is caught at
// export time, not at the first downstream read.
package results

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"

	"pmpr/internal/events"
)

const (
	magic   = "PMRS"
	version = 1

	flagConverged   = 1 << 0
	flagPartialInit = 1 << 1

	// windowHeaderSize is a window record's header: index, iterations,
	// flags and entry count.
	windowHeaderSize = 4 + 4 + 1 + 4
	// entrySize is one encoded (vertex int32, rank float64) entry.
	entrySize = 4 + 8
	// chunkEntries bounds the entries Read decodes per read call (48 KB),
	// and so what it allocates for a window before its bytes arrive.
	chunkEntries = 4096
)

// CorruptError reports a structural violation found while decoding or
// validating a rank series: an out-of-range vertex id, unsorted or
// duplicate entries, a misordered window record, an implausible count.
// IO-level failures (truncation, short reads) are reported as wrapped
// io errors instead, so callers can distinguish "the file is damaged"
// from "the file is lying".
type CorruptError struct {
	// Window is the window record the violation was found in, or -1
	// for header-level violations.
	Window int
	// Detail describes the violated invariant.
	Detail string
}

// Error renders the violation with its window context.
func (e *CorruptError) Error() string {
	if e.Window < 0 {
		return "results: corrupt series: " + e.Detail
	}
	return fmt.Sprintf("results: corrupt series: window %d: %s", e.Window, e.Detail)
}

func corruptf(window int, format string, args ...any) error {
	return &CorruptError{Window: window, Detail: fmt.Sprintf(format, args...)}
}

// WindowRanks is one deserialized window.
type WindowRanks struct {
	Window          int
	Iterations      int
	Converged       bool
	UsedPartialInit bool
	// Vertices and Ranks are parallel slices of the positive entries,
	// sorted by vertex id (strictly increasing — Validate enforces it).
	Vertices []int32
	Ranks    []float64
}

// Len returns the number of sparse entries in the window.
func (w *WindowRanks) Len() int { return len(w.Vertices) }

// Rank looks up the rank of vertex v by binary search over the sorted
// entries; ok is false when the vertex has no positive rank in this
// window.
func (w *WindowRanks) Rank(v int32) (rank float64, ok bool) {
	i := sort.Search(len(w.Vertices), func(i int) bool { return w.Vertices[i] >= v })
	if i < len(w.Vertices) && w.Vertices[i] == v {
		return w.Ranks[i], true
	}
	return 0, false
}

// ForEach calls f for every entry in ascending vertex order.
func (w *WindowRanks) ForEach(f func(v int32, rank float64)) {
	for i, v := range w.Vertices {
		f(v, w.Ranks[i])
	}
}

// Validate checks the window's structural invariants as record index
// `index` of a series over numVertices vertices: parallel slices, the
// window label matching its position, vertex ids strictly increasing
// within [0, numVertices), and ranks finite and positive. It returns a
// *CorruptError describing the first violation, or nil.
func (w *WindowRanks) Validate(index int, numVertices int32) error {
	if len(w.Vertices) != len(w.Ranks) {
		return corruptf(index, "%d vertices but %d ranks", len(w.Vertices), len(w.Ranks))
	}
	if w.Window != index {
		return corruptf(index, "record labeled window %d out of sequential order", w.Window)
	}
	if w.Iterations < 0 {
		return corruptf(index, "negative iteration count %d", w.Iterations)
	}
	prev := int32(-1)
	for i, v := range w.Vertices {
		if v < 0 || v >= numVertices {
			return corruptf(index, "vertex id %d outside [0, %d)", v, numVertices)
		}
		if v <= prev {
			return corruptf(index, "vertex ids not strictly increasing at entry %d (%d after %d)", i, v, prev)
		}
		prev = v
		r := w.Ranks[i]
		if math.IsNaN(r) || math.IsInf(r, 0) || r <= 0 {
			return corruptf(index, "vertex %d has non-positive or non-finite rank %v", v, r)
		}
	}
	return nil
}

// Dense expands the sparse entries to a dense vector. The receiver
// must satisfy Validate for this numVertices (Read guarantees it);
// entries outside [0, numVertices) would otherwise index out of range.
func (w *WindowRanks) Dense(numVertices int32) []float64 {
	out := make([]float64, numVertices)
	for i, v := range w.Vertices {
		out[v] = w.Ranks[i]
	}
	return out
}

// Series is a deserialized result file.
type Series struct {
	Spec        events.WindowSpec
	NumVertices int32
	Windows     []WindowRanks
}

// Window returns window i of the series.
func (s *Series) Window(i int) *WindowRanks { return &s.Windows[i] }

// SpecAndSize makes *Series a SeriesSource, so a decoded file can be
// re-serialized or fed to consumers (e.g. serve.NewStore) directly.
func (s *Series) SpecAndSize() (events.WindowSpec, int32) { return s.Spec, s.NumVertices }

// WindowAt returns window i; with SpecAndSize it implements
// SeriesSource.
func (s *Series) WindowAt(i int) WindowRanks { return s.Windows[i] }

// SeriesSource is what Write consumes: the subset of core.Series (or
// any other producer) it needs. Implementations yield windows in order.
type SeriesSource interface {
	SpecAndSize() (events.WindowSpec, int32)
	// WindowAt returns the sparse positive entries of window i sorted
	// by vertex, plus metadata.
	WindowAt(i int) WindowRanks
}

// Write serializes src. Every window is validated (see
// WindowRanks.Validate) before encoding, so a producer emitting
// misordered records or out-of-range ids fails here rather than
// handing a poisoned file to the next reader.
func Write(w io.Writer, src SeriesSource) error {
	bw := bufio.NewWriter(w)
	spec, n := src.SpecAndSize()
	if n < 0 {
		return corruptf(-1, "negative vertex count %d", n)
	}
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	hdr := make([]byte, 4+8*3+4+4)
	binary.LittleEndian.PutUint32(hdr[0:], version)
	binary.LittleEndian.PutUint64(hdr[4:], uint64(spec.T0))
	binary.LittleEndian.PutUint64(hdr[12:], uint64(spec.Delta))
	binary.LittleEndian.PutUint64(hdr[20:], uint64(spec.Slide))
	binary.LittleEndian.PutUint32(hdr[28:], uint32(spec.Count))
	binary.LittleEndian.PutUint32(hdr[32:], uint32(n))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	// buf holds one window's record (header and entries), reused for
	// every window so bufio sees a single Write per window.
	var buf []byte
	for i := 0; i < spec.Count; i++ {
		wr := src.WindowAt(i)
		if err := wr.Validate(i, n); err != nil {
			return err
		}
		var flags uint8
		if wr.Converged {
			flags |= flagConverged
		}
		if wr.UsedPartialInit {
			flags |= flagPartialInit
		}
		size := windowHeaderSize + entrySize*len(wr.Vertices)
		buf = slices.Grow(buf[:0], size)[:size]
		binary.LittleEndian.PutUint32(buf[0:], uint32(wr.Window))
		binary.LittleEndian.PutUint32(buf[4:], uint32(wr.Iterations))
		buf[8] = flags
		binary.LittleEndian.PutUint32(buf[9:], uint32(len(wr.Vertices)))
		entries := buf[windowHeaderSize:]
		for j, v := range wr.Vertices {
			e := entries[entrySize*j : entrySize*j+entrySize]
			binary.LittleEndian.PutUint32(e[0:], uint32(v))
			binary.LittleEndian.PutUint64(e[4:], math.Float64bits(wr.Ranks[j]))
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read deserializes a result file, validating every structural
// invariant as it decodes: the vertex count must be non-negative,
// window records must appear in sequential order (record i labeled
// window i), and each window must pass WindowRanks.Validate. A file
// that violates any of them is rejected with a *CorruptError — never a
// panic, and never a Series a consumer must distrust.
func Read(r io.Reader) (*Series, error) {
	br := bufio.NewReader(r)
	m := make([]byte, 4)
	if _, err := io.ReadFull(br, m); err != nil {
		return nil, fmt.Errorf("results: reading magic: %w", err)
	}
	if string(m) != magic {
		return nil, fmt.Errorf("results: bad magic %q", m)
	}
	hdr := make([]byte, 4+8*3+4+4)
	if err := readRecord(br, hdr); err != nil {
		return nil, fmt.Errorf("results: reading header: %w", err)
	}
	if v := binary.LittleEndian.Uint32(hdr[0:]); v != version {
		return nil, fmt.Errorf("results: unsupported version %d", v)
	}
	s := &Series{
		Spec: events.WindowSpec{
			T0:    int64(binary.LittleEndian.Uint64(hdr[4:])),
			Delta: int64(binary.LittleEndian.Uint64(hdr[12:])),
			Slide: int64(binary.LittleEndian.Uint64(hdr[20:])),
			Count: int(binary.LittleEndian.Uint32(hdr[28:])),
		},
		NumVertices: int32(binary.LittleEndian.Uint32(hdr[32:])),
	}
	const maxReasonable = 1 << 28
	if s.Spec.Count < 0 || s.Spec.Count > maxReasonable {
		return nil, corruptf(-1, "implausible window count %d", s.Spec.Count)
	}
	if s.NumVertices < 0 {
		// The uint32 on the wire can flip the int32 sign; a negative
		// universe would turn every in-range check below into nonsense.
		return nil, corruptf(-1, "negative vertex count %d", s.NumVertices)
	}
	var whdr [windowHeaderSize]byte
	// chunk holds up to chunkEntries encoded entries, reused for every
	// window; it grows to one chunk at most.
	var chunk []byte
	for i := 0; i < s.Spec.Count; i++ {
		if err := readRecord(br, whdr[:]); err != nil {
			return nil, fmt.Errorf("results: window %d header: %w", i, err)
		}
		wr := WindowRanks{
			Window:          int(int32(binary.LittleEndian.Uint32(whdr[0:]))),
			Iterations:      int(int32(binary.LittleEndian.Uint32(whdr[4:]))),
			Converged:       whdr[8]&flagConverged != 0,
			UsedPartialInit: whdr[8]&flagPartialInit != 0,
		}
		declared := binary.LittleEndian.Uint32(whdr[9:])
		if declared > maxReasonable {
			return nil, corruptf(i, "implausible entry count %d", declared)
		}
		count := int(declared)
		if count > 0 {
			// Sized by at most one chunk: a corrupt count fails with a
			// truncation error below, before the slices grow past the
			// bytes that actually arrived.
			wr.Vertices = make([]int32, 0, min(count, chunkEntries))
			wr.Ranks = make([]float64, 0, min(count, chunkEntries))
		}
		for done := 0; done < count; {
			k := min(count-done, chunkEntries)
			if cap(chunk) < entrySize*k {
				chunk = make([]byte, entrySize*k)
			}
			chunk = chunk[:entrySize*k]
			if err := readRecord(br, chunk); err != nil {
				return nil, fmt.Errorf("results: window %d entries %d to %d: %w", i, done, done+k-1, err)
			}
			wr.Vertices = slices.Grow(wr.Vertices, k)[:done+k]
			wr.Ranks = slices.Grow(wr.Ranks, k)[:done+k]
			vs, rs := wr.Vertices[done:], wr.Ranks[done:]
			for j := range vs {
				e := chunk[entrySize*j : entrySize*j+entrySize]
				vs[j] = int32(binary.LittleEndian.Uint32(e[0:]))
				rs[j] = math.Float64frombits(binary.LittleEndian.Uint64(e[4:]))
			}
			done += k
		}
		if err := wr.Validate(i, s.NumVertices); err != nil {
			return nil, err
		}
		s.Windows = append(s.Windows, wr)
	}
	return s, nil
}

// readRecord fills buf with the next bytes of a file whose magic has
// been read. Past the magic the header declares what must follow, so
// an end of input there is a truncation even at a record boundary: it
// fails with io.ErrUnexpectedEOF, never a bare io.EOF a caller could
// take for a clean end.
func readRecord(r io.Reader, buf []byte) error {
	_, err := io.ReadFull(r, buf)
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
