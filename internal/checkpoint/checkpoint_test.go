package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"pmpr/internal/fault"
)

func testManifest() Manifest {
	return Manifest{
		SpecT0: -17, SpecDelta: 160, SpecSlide: 90, SpecCount: 12,
		NumMultiWindows: 3, PartitionHash: 0xdeadbeefcafe,
		NumVertices: 512, Directed: true, PartialInit: true,
		Alpha: 0.15, Tol: 1e-8, MaxIter: 100,
	}
}

func testWindow(idx int) *Window {
	ranks := make([]float64, 7)
	for i := range ranks {
		ranks[i] = 1.0 / float64(i+idx+1)
	}
	return &Window{
		Index: idx, Iterations: 23, Converged: true, UsedPartialInit: idx > 0,
		ActiveVertices: 7, FinalResidual: 3.5e-9, WallSeconds: 0.0125, Ranks: ranks,
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := testManifest()
	got, err := DecodeManifest(EncodeManifest(m))
	if err != nil {
		t.Fatalf("DecodeManifest: %v", err)
	}
	if got != m {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, m)
	}
}

func TestWindowRoundTrip(t *testing.T) {
	w := testWindow(42)
	got, err := DecodeWindow(EncodeWindow(w))
	if err != nil {
		t.Fatalf("DecodeWindow: %v", err)
	}
	if got.Index != w.Index || got.Iterations != w.Iterations || got.Converged != w.Converged ||
		got.UsedPartialInit != w.UsedPartialInit || got.ActiveVertices != w.ActiveVertices ||
		got.FinalResidual != w.FinalResidual || got.WallSeconds != w.WallSeconds {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, w)
	}
	if len(got.Ranks) != len(w.Ranks) {
		t.Fatalf("ranks length %d, want %d", len(got.Ranks), len(w.Ranks))
	}
	for i := range w.Ranks {
		if got.Ranks[i] != w.Ranks[i] {
			t.Fatalf("rank[%d] = %v, want %v (must be bit-identical)", i, got.Ranks[i], w.Ranks[i])
		}
	}
}

func TestWindowRoundTripEmptyRanks(t *testing.T) {
	w := &Window{Index: 0}
	got, err := DecodeWindow(EncodeWindow(w))
	if err != nil {
		t.Fatalf("DecodeWindow: %v", err)
	}
	if got.Index != 0 || len(got.Ranks) != 0 {
		t.Fatalf("got %+v, want empty window 0", got)
	}
	// A window of a multi-window graph with no local vertices has an
	// empty rank vector, not none: the decoded vector must be non-nil.
	if got.Ranks == nil {
		t.Fatalf("empty rank vector decoded as nil")
	}
}

// TestDecodeRejectsEveryBitFlip flips each byte of valid encodings and
// requires the decoder to reject every mutation (the CRC trailer covers
// the whole record, so no flip may survive).
func TestDecodeRejectsEveryBitFlip(t *testing.T) {
	wb := EncodeWindow(testWindow(3))
	mb := EncodeManifest(testManifest())
	for i := range wb {
		c := append([]byte{}, wb...)
		c[i] ^= 0x41
		if _, err := DecodeWindow(c); err == nil {
			t.Fatalf("DecodeWindow accepted a record with byte %d corrupted", i)
		}
	}
	for i := range mb {
		c := append([]byte{}, mb...)
		c[i] ^= 0x41
		if _, err := DecodeManifest(c); err == nil {
			t.Fatalf("DecodeManifest accepted a manifest with byte %d corrupted", i)
		}
	}
}

func TestDecodeRejectsTruncationAndGarbage(t *testing.T) {
	wb := EncodeWindow(testWindow(3))
	for _, n := range []int{0, 1, 4, 8, len(wb) / 2, len(wb) - 1} {
		if _, err := DecodeWindow(wb[:n]); err == nil {
			t.Fatalf("DecodeWindow accepted a %d-byte truncation", n)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d bytes: error %v does not wrap ErrCorrupt", n, err)
		}
	}
	if _, err := DecodeWindow(append(append([]byte{}, wb...), 0)); err == nil {
		t.Fatal("DecodeWindow accepted trailing garbage")
	}
	if _, err := DecodeWindow([]byte("PMEVnot a checkpoint")); err == nil {
		t.Fatal("DecodeWindow accepted a foreign magic")
	}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(filepath.Join(dir, "ck"))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, ok, err := s.LoadManifest(); err != nil || ok {
		t.Fatalf("empty store LoadManifest = ok=%v err=%v, want absent", ok, err)
	}
	m := testManifest()
	if err := s.WriteManifest(m); err != nil {
		t.Fatalf("WriteManifest: %v", err)
	}
	got, ok, err := s.LoadManifest()
	if err != nil || !ok || got != m {
		t.Fatalf("LoadManifest = %+v ok=%v err=%v", got, ok, err)
	}
	for _, idx := range []int{0, 3, 11} {
		if err := s.WriteWindow(testWindow(idx)); err != nil {
			t.Fatalf("WriteWindow(%d): %v", idx, err)
		}
	}
	windows, skipped, err := s.LoadWindows()
	if err != nil {
		t.Fatalf("LoadWindows: %v", err)
	}
	if len(skipped) != 0 || len(windows) != 3 {
		t.Fatalf("LoadWindows = %d windows, skipped %v", len(windows), skipped)
	}
	for _, idx := range []int{0, 3, 11} {
		if windows[idx] == nil || windows[idx].Index != idx {
			t.Fatalf("window %d missing or mis-indexed: %+v", idx, windows[idx])
		}
	}
	if err := s.Clear(); err != nil {
		t.Fatalf("Clear: %v", err)
	}
	windows, _, err = s.LoadWindows()
	if err != nil || len(windows) != 0 {
		t.Fatalf("after Clear: %d windows, err %v", len(windows), err)
	}
	if _, ok, _ := s.LoadManifest(); ok {
		t.Fatal("manifest survived Clear")
	}
}

// TestLoadWindowsSkipsCorruptRecords damages one record on disk and
// verifies the load skips (and reports) it while keeping the rest.
func TestLoadWindowsSkipsCorruptRecords(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for idx := 0; idx < 3; idx++ {
		if err := s.WriteWindow(testWindow(idx)); err != nil {
			t.Fatalf("WriteWindow: %v", err)
		}
	}
	path := filepath.Join(s.Dir(), "window-00000001.pmck")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	windows, skipped, err := s.LoadWindows()
	if err != nil {
		t.Fatalf("LoadWindows: %v", err)
	}
	if len(windows) != 2 || windows[1] != nil {
		t.Fatalf("corrupt record not skipped: got %d windows (1 present: %v)", len(windows), windows[1] != nil)
	}
	if len(skipped) != 1 || skipped[0] != "window-00000001.pmck" {
		t.Fatalf("skipped = %v, want the corrupt record", skipped)
	}
}

// TestLoadWindowsRejectsRenamedRecord verifies a record whose embedded
// index disagrees with its file name is treated as corrupt: resuming
// it would restore the wrong window.
func TestLoadWindowsRejectsRenamedRecord(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := s.WriteWindow(testWindow(5)); err != nil {
		t.Fatalf("WriteWindow: %v", err)
	}
	from := filepath.Join(s.Dir(), "window-00000005.pmck")
	to := filepath.Join(s.Dir(), "window-00000009.pmck")
	if err := os.Rename(from, to); err != nil {
		t.Fatalf("Rename: %v", err)
	}
	windows, skipped, err := s.LoadWindows()
	if err != nil {
		t.Fatalf("LoadWindows: %v", err)
	}
	if len(windows) != 0 || len(skipped) != 1 {
		t.Fatalf("renamed record not rejected: windows=%d skipped=%v", len(windows), skipped)
	}
}

// TestStoreFaultInjection arms the checkpoint IO fault points and
// verifies writes surface the injected error and reads skip the
// injected-faulty record.
func TestStoreFaultInjection(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// The store calls the package-level fault.Inject (Default registry);
	// arm Default and restore it after.
	defer fault.Reset()
	cancel := fault.Arm(fault.Rule{Point: PointWriteWindow, Mode: fault.ModeError, Count: 1})
	if err := s.WriteWindow(testWindow(0)); err == nil {
		t.Fatal("WriteWindow did not surface the injected error")
	}
	cancel()
	if err := s.WriteWindow(testWindow(0)); err != nil {
		t.Fatalf("WriteWindow after disarm: %v", err)
	}
	if err := s.WriteWindow(testWindow(1)); err != nil {
		t.Fatalf("WriteWindow: %v", err)
	}
	cancel = fault.Arm(fault.Rule{Point: PointReadWindow, Mode: fault.ModeError, Count: 1})
	windows, skipped, err := s.LoadWindows()
	cancel()
	if err != nil {
		t.Fatalf("LoadWindows: %v", err)
	}
	if len(windows) != 1 || len(skipped) != 1 {
		t.Fatalf("injected read fault: windows=%d skipped=%v, want 1 and 1", len(windows), skipped)
	}
}

func TestHashPartitionDistinguishesBoundaries(t *testing.T) {
	a := HashPartition([]int{0, 4, 4, 8})
	b := HashPartition([]int{0, 3, 3, 8})
	if a == b {
		t.Fatal("different partitions hashed equal")
	}
	if a != HashPartition([]int{0, 4, 4, 8}) {
		t.Fatal("hash is not deterministic")
	}
}
