package events

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"

	"pmpr/internal/fault"
)

// Text format: one event per line, "u v t" separated by whitespace or
// tabs (the layout of SNAP temporal edge lists). Lines that are empty or
// start with '#' or '%' are skipped.
//
// Binary format: little-endian; header magic "PMEV", version uint32,
// numVertices int32 (with 4 bytes padding), count uint64, then count
// records of (u int32, v int32, t int64).

const (
	binaryMagic   = "PMEV"
	binaryVersion = 1
)

// Fault-injection points covering event-log IO (see internal/fault).
const (
	// PointReadText fires at the top of ReadText.
	PointReadText = "events.read_text"
	// PointReadBinary fires at the top of ReadBinary.
	PointReadBinary = "events.read_binary"
)

func init() {
	fault.RegisterPoint(PointReadText, "text event-log parse entry")
	fault.RegisterPoint(PointReadBinary, "binary event-log parse entry")
}

// WriteText writes the log in text form.
func WriteText(w io.Writer, l *Log) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# pmpr temporal edge list: %d vertices, %d events\n", l.NumVertices(), l.Len())
	for _, e := range l.Events() {
		if _, err := fmt.Fprintf(bw, "%d\t%d\t%d\n", e.U, e.V, e.T); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText parses a text event list. The result is sorted by timestamp
// if the input is not already sorted.
func ReadText(r io.Reader) (*Log, error) {
	if err := fault.Inject(PointReadText); err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var evs []Event
	sorted := true
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			return nil, fmt.Errorf("events: line %d: want 3 fields \"u v t\", got %q", lineNo, line)
		}
		u, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("events: line %d: bad source id: %v", lineNo, err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("events: line %d: bad target id: %v", lineNo, err)
		}
		t, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("events: line %d: bad timestamp: %v", lineNo, err)
		}
		if len(evs) > 0 && t < evs[len(evs)-1].T {
			sorted = false
		}
		evs = append(evs, Event{U: int32(u), V: int32(v), T: t})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if sorted {
		return NewLog(evs, 0)
	}
	return NewLogSorted(evs, 0)
}

// WriteBinary writes the log in the compact binary form.
func WriteBinary(w io.Writer, l *Log) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	hdr := make([]byte, 16)
	binary.LittleEndian.PutUint32(hdr[0:4], binaryVersion)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(l.NumVertices()))
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(l.Len()))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	rec := make([]byte, 16)
	for _, e := range l.Events() {
		binary.LittleEndian.PutUint32(rec[0:4], uint32(e.U))
		binary.LittleEndian.PutUint32(rec[4:8], uint32(e.V))
		binary.LittleEndian.PutUint64(rec[8:16], uint64(e.T))
		if _, err := bw.Write(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary parses the binary form written by WriteBinary. Every
// header field is validated before use and the stream must end exactly
// after the last record, so a truncated, padded, or corrupted file is
// reported as an error instead of yielding a silently wrong log.
func ReadBinary(r io.Reader) (*Log, error) {
	if err := fault.Inject(PointReadBinary); err != nil {
		return nil, err
	}
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("events: reading magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("events: bad magic %q, want %q", magic, binaryMagic)
	}
	hdr := make([]byte, 16)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("events: reading header: %w", err)
	}
	if v := binary.LittleEndian.Uint32(hdr[0:4]); v != binaryVersion {
		return nil, fmt.Errorf("events: unsupported version %d", v)
	}
	numVertices := int32(binary.LittleEndian.Uint32(hdr[4:8]))
	if numVertices < 0 {
		return nil, fmt.Errorf("events: negative vertex count %d", numVertices)
	}
	count := binary.LittleEndian.Uint64(hdr[8:16])
	const maxReasonable = 1 << 34
	if count > maxReasonable {
		return nil, fmt.Errorf("events: implausible event count %d", count)
	}
	// Grow incrementally rather than trusting the header's count: a
	// corrupt count must fail with a truncation error, not an
	// out-of-memory allocation.
	var evs []Event
	maxID := int64(-1)
	rec := make([]byte, 16)
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(br, rec); err != nil {
			return nil, fmt.Errorf("events: reading event %d of %d: %w", i, count, err)
		}
		e := Event{
			U: int32(binary.LittleEndian.Uint32(rec[0:4])),
			V: int32(binary.LittleEndian.Uint32(rec[4:8])),
			T: int64(binary.LittleEndian.Uint64(rec[8:16])),
		}
		maxID = max(maxID, int64(e.U), int64(e.V))
		evs = append(evs, e)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("events: trailing bytes after %d events", count)
	}
	if limit := maxDeclaredVertices(maxID, count); int64(numVertices) > limit {
		return nil, fmt.Errorf("events: declared vertex count %d exceeds %d (the %d events name ids up to %d)",
			numVertices, limit, count, maxID)
	}
	return NewLog(evs, numVertices)
}

// maxDeclaredVertices bounds the vertex count a binary header may
// declare. Every per-vertex array downstream is sized by that count,
// so it may exceed the ids the events name only by slack that grows
// with the file: generators declare some vertices no event uses, but a
// 52-byte file must not make a reader allocate gigabytes.
func maxDeclaredVertices(maxID int64, count uint64) int64 {
	return maxID + 1 + max(2*int64(count), 1<<16)
}
