package checkpoint

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// allocatedBy returns the heap bytes f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// decodeAllocBudget bounds what a decoder may allocate for an input of
// size bytes, accepted or rejected: the constant per input byte the
// .pmrs decoder is held to (FuzzRead in internal/results), plus a
// constant for the decoded record and an error message, whose fmt
// buffers a GC may have taken back. A length field must never make a
// decoder allocate for bytes that did not arrive.
func decodeAllocBudget(size int) uint64 {
	return uint64(32*size + 16<<10)
}

// checkDecodeAlloc fails the fuzz case if decode allocated more than
// decodeAllocBudget allows for in.
func checkDecodeAlloc(t *testing.T, in []byte, decode func() error) {
	t.Helper()
	var err error
	alloc := allocatedBy(func() { err = decode() })
	if budget := decodeAllocBudget(len(in)); alloc > budget {
		t.Fatalf("decoding allocated %d bytes for a %d-byte input (budget %d, err %v)", alloc, len(in), budget, err)
	}
}

// decodeInputs returns what a decoder fuzz case decodes: the input as
// given, and, for an input of at least 4 bytes, a copy whose CRC
// trailer is recomputed over the rest. Almost every mutation breaks
// the CRC, so only the resealed copy lets the fuzzer reach the fields
// behind it.
func decodeInputs(data []byte) [][]byte {
	if len(data) < 4 {
		return [][]byte{data}
	}
	body := append([]byte{}, data[:len(data)-4]...)
	return [][]byte{data, (&encoder{buf: body}).seal()}
}

// FuzzDecodeWindow feeds arbitrary bytes, as given and resealed
// (decodeInputs), to the window decoder. The decoder must never panic,
// and never allocate more than decodeAllocBudget; when it does accept
// an input, a re-encode of the decoded window must reproduce the input
// exactly (the codec has a single canonical form, so acceptance
// implies integrity).
func FuzzDecodeWindow(f *testing.F) {
	f.Add(EncodeWindow(testWindow(0)))
	f.Add(EncodeWindow(testWindow(7)))
	f.Add(EncodeWindow(&Window{Index: 1 << 30}))
	f.Add([]byte("PMCW"))
	f.Add([]byte{})
	corrupt := EncodeWindow(testWindow(3))
	corrupt[len(corrupt)/2] ^= 1
	f.Add(corrupt)
	f.Add(overdeclaredWindow())
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range decodeInputs(data) {
			var w *Window
			var err error
			checkDecodeAlloc(t, in, func() error { w, err = DecodeWindow(in); return err })
			if err != nil {
				continue
			}
			if got := EncodeWindow(w); !bytes.Equal(got, in) {
				t.Fatalf("accepted input is not canonical:\n in  %x\n out %x", in, got)
			}
		}
	})
}

// overdeclaredWindow is a rankless window record whose rank count
// claims 2¹⁶ ranks, resealed with a valid CRC so the decoder reaches
// the count: it must fail without allocating for the missing ranks.
func overdeclaredWindow() []byte {
	rec := EncodeWindow(&Window{Index: 2})
	body := rec[:len(rec)-4]
	binary.LittleEndian.PutUint64(body[len(body)-8:], 1<<16)
	return (&encoder{buf: body}).seal()
}

// FuzzDecodeManifest is the manifest analogue of FuzzDecodeWindow,
// under the same allocation budget.
func FuzzDecodeManifest(f *testing.F) {
	f.Add(EncodeManifest(testManifest()))
	f.Add(EncodeManifest(Manifest{}))
	f.Add([]byte("PMCM"))
	corrupt := EncodeManifest(testManifest())
	corrupt[8] ^= 0x10
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range decodeInputs(data) {
			var m Manifest
			var err error
			checkDecodeAlloc(t, in, func() error { m, err = DecodeManifest(in); return err })
			if err != nil {
				continue
			}
			if got := EncodeManifest(m); !bytes.Equal(got, in) {
				t.Fatalf("accepted input is not canonical:\n in  %x\n out %x", in, got)
			}
		}
	})
}

// FuzzWindowRoundTrip fuzzes the encode side: arbitrary field values
// must survive a round trip bit-identically.
func FuzzWindowRoundTrip(f *testing.F) {
	f.Add(3, 17, true, true, int32(40), 1e-9, 0.5, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(0, 0, false, false, int32(0), 0.0, 0.0, []byte{})
	f.Fuzz(func(t *testing.T, idx, iters int, conv, warm bool, active int32, resid, wall float64, rankBytes []byte) {
		if idx < 0 {
			idx = -idx
		}
		if idx < 0 { // -MinInt overflows back to MinInt
			idx = 0
		}
		ranks := make([]float64, len(rankBytes)/2)
		for i := range ranks {
			ranks[i] = float64(rankBytes[2*i])/255 + float64(rankBytes[2*i+1])
		}
		w := &Window{
			Index: idx, Iterations: int(int32(iters)), Converged: conv, UsedPartialInit: warm,
			ActiveVertices: active, FinalResidual: resid, WallSeconds: wall, Ranks: ranks,
		}
		got, err := DecodeWindow(EncodeWindow(w))
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if got.Index != w.Index || got.Iterations != w.Iterations || len(got.Ranks) != len(w.Ranks) {
			t.Fatalf("round trip mismatch: got %+v want %+v", got, w)
		}
		for i := range ranks {
			if got.Ranks[i] != ranks[i] {
				t.Fatalf("rank[%d] not bit-identical", i)
			}
		}
	})
}
