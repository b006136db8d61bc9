// Package checkpoint persists per-window PageRank results durably so a
// long postmortem sweep survives crashes and operator interrupts: the
// solve stage writes each window's record as it completes, and a
// resumed run skips every window already on disk, warm-starting
// successors from the checkpointed rank vectors.
//
// The on-disk layout is one directory per run:
//
//	manifest.pmck          — run manifest (spec, partition hash, options)
//	window-00000042.pmck   — one record per completed window
//
// Records use a little-endian binary codec with a CRC-32C trailer;
// decoding rejects truncated, oversized, or bit-flipped input, so a
// torn write (despite the atomic temp+rename protocol) or disk
// corruption surfaces as an error and the window is simply re-solved.
// A resumed run validates the manifest first: a checkpoint taken under
// a different window spec, partitioning, or iteration option set never
// silently mixes with the new run, and a directory written by another
// codec version is refused rather than re-solved.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"pmpr/internal/fault"
)

const (
	manifestMagic = "PMCM"
	windowMagic   = "PMCW"
	// codecVersion 2 added the batch width to the manifest; version 3
	// dropped it and the kernel name, since every run solves one window
	// per sweep.
	codecVersion = 3
	manifestName = "manifest.pmck"
	windowGlob   = "window-*.pmck"
)

// Injection points covering checkpoint IO (see internal/fault).
const (
	PointWriteManifest = "checkpoint.write_manifest"
	PointWriteWindow   = "checkpoint.write_window"
	PointReadWindow    = "checkpoint.read_window"
)

func init() {
	fault.RegisterPoint(PointWriteManifest, "checkpoint manifest write (atomic temp+rename)")
	fault.RegisterPoint(PointWriteWindow, "per-window checkpoint record write")
	fault.RegisterPoint(PointReadWindow, "per-window checkpoint record load during resume")
}

// castagnoli is the CRC-32C table shared by encode and decode.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt is wrapped by every decode failure caused by damaged
// bytes (bad magic, truncation, length mismatch, CRC mismatch), as
// opposed to an unsupported version.
var ErrCorrupt = errors.New("checkpoint: corrupt record")

// Manifest identifies the run a checkpoint belongs to. Two runs may
// share checkpoints iff their manifests are equal: same window
// sequence, multi-window partitioning, iteration options, and input
// shape.
type Manifest struct {
	// SpecT0, SpecDelta, SpecSlide, SpecCount are the window sequence.
	SpecT0    int64
	SpecDelta int64
	SpecSlide int64
	SpecCount int
	// NumMultiWindows is the partition count.
	NumMultiWindows int
	// PartitionHash fingerprints the exact window->multi-window
	// assignment (boundaries), so windows solved under one partitioning
	// are never resumed under another.
	PartitionHash uint64
	// NumVertices is the vertex universe size.
	NumVertices int32
	// Directed records the edge-direction handling.
	Directed bool
	// PartialInit records warm-start chaining (it changes the results'
	// exact bits, so resumed runs must agree on it).
	PartialInit bool
	// Alpha, Tol, MaxIter are the PageRank iteration options.
	Alpha   float64
	Tol     float64
	MaxIter int
}

// HashPartition fingerprints a window partition given each
// multi-window graph's [lo, hi) global window range, flattened as
// pairs: lo0, hi0, lo1, hi1, ...
func HashPartition(bounds []int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, b := range bounds {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(b)))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// Window is one completed window's checkpointed result.
type Window struct {
	// Index is the global window index.
	Index int
	// Iterations, Converged, UsedPartialInit, ActiveVertices,
	// FinalResidual, WallSeconds mirror core.WindowResult.
	Iterations      int
	Converged       bool
	UsedPartialInit bool
	ActiveVertices  int32
	FinalResidual   float64
	WallSeconds     float64
	// Ranks is the window's local-id rank vector.
	Ranks []float64
}

type encoder struct{ buf []byte }

func (e *encoder) u8(v uint8)    { e.buf = append(e.buf, v) }
func (e *encoder) u32(v uint32)  { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *encoder) u64(v uint64)  { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *encoder) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *encoder) seal() []byte {
	e.u32(crc32.Checksum(e.buf, castagnoli))
	return e.buf
}

type decoder struct {
	buf []byte
	off int
	err error
}

// open validates magic, version, and the CRC trailer up front, then
// positions the decoder after the version field.
func (d *decoder) open(magic string) {
	if len(d.buf) < len(magic)+8 {
		d.err = fmt.Errorf("%w: %d bytes is shorter than any record", ErrCorrupt, len(d.buf))
		return
	}
	if string(d.buf[:len(magic)]) != magic {
		d.err = fmt.Errorf("%w: bad magic %q, want %q", ErrCorrupt, d.buf[:len(magic)], magic)
		return
	}
	body, trailer := d.buf[:len(d.buf)-4], d.buf[len(d.buf)-4:]
	want := binary.LittleEndian.Uint32(trailer)
	if got := crc32.Checksum(body, castagnoli); got != want {
		d.err = fmt.Errorf("%w: CRC mismatch (got %08x, want %08x)", ErrCorrupt, got, want)
		return
	}
	d.buf = body
	d.off = len(magic)
	if v := d.u32(); d.err == nil && v != codecVersion {
		d.err = fmt.Errorf("checkpoint: unsupported codec version %d (this build reads version %d)", v, codecVersion)
	}
}

func (d *decoder) need(n int) bool {
	if d.err != nil {
		return false
	}
	if d.off+n > len(d.buf) {
		d.err = fmt.Errorf("%w: truncated at offset %d (need %d of %d bytes)", ErrCorrupt, d.off, n, len(d.buf))
		return false
	}
	return true
}

func (d *decoder) u8() uint8 {
	if !d.need(1) {
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *decoder) u32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

func (d *decoder) u64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

// close rejects records with bytes beyond the decoded fields.
func (d *decoder) close() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.buf)-d.off)
	}
	return nil
}

// EncodeManifest renders m in the binary manifest codec.
func EncodeManifest(m Manifest) []byte {
	e := &encoder{buf: append([]byte{}, manifestMagic...)}
	e.u32(codecVersion)
	e.u64(uint64(m.SpecT0))
	e.u64(uint64(m.SpecDelta))
	e.u64(uint64(m.SpecSlide))
	e.u32(uint32(m.SpecCount))
	e.u32(uint32(m.NumMultiWindows))
	e.u64(m.PartitionHash)
	e.u32(uint32(m.NumVertices))
	var flags uint8
	if m.Directed {
		flags |= 1
	}
	if m.PartialInit {
		flags |= 2
	}
	e.u8(flags)
	e.f64(m.Alpha)
	e.f64(m.Tol)
	e.u32(uint32(m.MaxIter))
	return e.seal()
}

// DecodeManifest parses the binary manifest codec.
func DecodeManifest(b []byte) (Manifest, error) {
	d := &decoder{buf: b}
	d.open(manifestMagic)
	var m Manifest
	m.SpecT0 = int64(d.u64())
	m.SpecDelta = int64(d.u64())
	m.SpecSlide = int64(d.u64())
	m.SpecCount = int(int32(d.u32()))
	m.NumMultiWindows = int(int32(d.u32()))
	m.PartitionHash = d.u64()
	m.NumVertices = int32(d.u32())
	flags := d.u8()
	if d.err == nil && flags&^uint8(3) != 0 {
		d.err = fmt.Errorf("%w: unknown manifest flag bits %#x", ErrCorrupt, flags)
	}
	m.Directed = flags&1 != 0
	m.PartialInit = flags&2 != 0
	m.Alpha = d.f64()
	m.Tol = d.f64()
	m.MaxIter = int(int32(d.u32()))
	if err := d.close(); err != nil {
		return Manifest{}, err
	}
	return m, nil
}

// EncodeWindow renders w in the binary window codec.
func EncodeWindow(w *Window) []byte {
	e := &encoder{buf: append([]byte{}, windowMagic...)}
	e.u32(codecVersion)
	e.u64(uint64(w.Index))
	e.u32(uint32(w.Iterations))
	var flags uint8
	if w.Converged {
		flags |= 1
	}
	if w.UsedPartialInit {
		flags |= 2
	}
	e.u8(flags)
	e.u32(uint32(w.ActiveVertices))
	e.f64(w.FinalResidual)
	e.f64(w.WallSeconds)
	e.u64(uint64(len(w.Ranks)))
	for _, r := range w.Ranks {
		e.f64(r)
	}
	return e.seal()
}

// DecodeWindow parses the binary window codec. Corrupt input (bad
// magic, truncation, CRC mismatch, implausible lengths) errors with
// ErrCorrupt in the chain; it never panics or short-reads.
func DecodeWindow(b []byte) (*Window, error) {
	d := &decoder{buf: b}
	d.open(windowMagic)
	w := &Window{}
	w.Index = int(int64(d.u64()))
	w.Iterations = int(int32(d.u32()))
	flags := d.u8()
	if d.err == nil && flags&^uint8(3) != 0 {
		d.err = fmt.Errorf("%w: unknown window flag bits %#x", ErrCorrupt, flags)
	}
	w.Converged = flags&1 != 0
	w.UsedPartialInit = flags&2 != 0
	w.ActiveVertices = int32(d.u32())
	w.FinalResidual = d.f64()
	w.WallSeconds = d.f64()
	n := d.u64()
	if d.err == nil {
		// Bound the rank count by the remaining bytes before allocating:
		// a corrupt length must fail, not OOM.
		if remaining := len(d.buf) - d.off; n > uint64(remaining/8) {
			d.err = fmt.Errorf("%w: rank count %d exceeds remaining %d bytes", ErrCorrupt, n, remaining)
		}
	}
	if d.err == nil {
		// An empty vector stays non-nil: a window of a multi-window
		// graph with no local vertices has ranks, all zero.
		w.Ranks = make([]float64, n)
		for i := range w.Ranks {
			w.Ranks[i] = d.f64()
		}
	}
	if w.Index < 0 {
		d.err = fmt.Errorf("%w: negative window index %d", ErrCorrupt, w.Index)
	}
	if err := d.close(); err != nil {
		return nil, err
	}
	return w, nil
}

// Store is a checkpoint directory. Window writes are safe for
// concurrent use by multiple solver workers (each window index writes
// a distinct file through a distinct temp name).
type Store struct {
	dir string
}

// Open creates (if needed) and wraps a checkpoint directory.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("checkpoint: empty directory path")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's directory path.
func (s *Store) Dir() string { return s.dir }

// writeAtomic writes data to path via a temp file in the same
// directory, fsyncs, and renames into place, so readers never observe
// a partial record.
func (s *Store) writeAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// WriteManifest atomically persists the run manifest.
func (s *Store) WriteManifest(m Manifest) error {
	if err := fault.Inject(PointWriteManifest); err != nil {
		return err
	}
	return s.writeAtomic(filepath.Join(s.dir, manifestName), EncodeManifest(m))
}

// LoadManifest reads the run manifest; ok is false when the store has
// none yet.
func (s *Store) LoadManifest() (m Manifest, ok bool, err error) {
	b, err := os.ReadFile(filepath.Join(s.dir, manifestName))
	if errors.Is(err, os.ErrNotExist) {
		return Manifest{}, false, nil
	}
	if err != nil {
		return Manifest{}, false, fmt.Errorf("checkpoint: %w", err)
	}
	m, err = DecodeManifest(b)
	if err != nil {
		return Manifest{}, false, err
	}
	return m, true, nil
}

// windowPath names window i's record file.
func (s *Store) windowPath(i int) string {
	return filepath.Join(s.dir, fmt.Sprintf("window-%08d.pmck", i))
}

// WriteWindow atomically persists one completed window.
func (s *Store) WriteWindow(w *Window) error {
	if err := fault.Inject(PointWriteWindow); err != nil {
		return err
	}
	return s.writeAtomic(s.windowPath(w.Index), EncodeWindow(w))
}

// LoadWindows reads every window record in the store. Corrupt or
// unreadable records are skipped — their windows will simply be
// re-solved — and reported in skipped by file name.
func (s *Store) LoadWindows() (windows map[int]*Window, skipped []string, err error) {
	paths, err := filepath.Glob(filepath.Join(s.dir, windowGlob))
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: %w", err)
	}
	sort.Strings(paths)
	windows = make(map[int]*Window, len(paths))
	for _, path := range paths {
		if ferr := fault.Inject(PointReadWindow); ferr != nil {
			skipped = append(skipped, filepath.Base(path))
			continue
		}
		b, rerr := os.ReadFile(path)
		if rerr != nil {
			skipped = append(skipped, filepath.Base(path))
			continue
		}
		w, derr := DecodeWindow(b)
		if derr != nil {
			skipped = append(skipped, filepath.Base(path))
			continue
		}
		if !indexMatchesName(path, w.Index) {
			// A record renamed onto the wrong index would resume the
			// wrong window; treat it as corruption.
			skipped = append(skipped, filepath.Base(path))
			continue
		}
		windows[w.Index] = w
	}
	return windows, skipped, nil
}

// indexMatchesName checks the record's embedded index against its file
// name.
func indexMatchesName(path string, index int) bool {
	base := filepath.Base(path)
	num := strings.TrimSuffix(strings.TrimPrefix(base, "window-"), ".pmck")
	n, err := strconv.Atoi(num)
	return err == nil && n == index
}

// Clear removes the manifest and every window record (used when a
// fresh, non-resuming run reuses a checkpoint directory).
func (s *Store) Clear() error {
	paths, err := filepath.Glob(filepath.Join(s.dir, windowGlob))
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	paths = append(paths, filepath.Join(s.dir, manifestName))
	for _, path := range paths {
		if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("checkpoint: %w", err)
		}
	}
	return nil
}
