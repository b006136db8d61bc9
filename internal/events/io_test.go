package events

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"pmpr/internal/fault"
)

func randomLog(t *testing.T, seed int64, n int) *Log {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	evs := make([]Event, n)
	tcur := int64(rng.Intn(1000))
	for i := range evs {
		tcur += int64(rng.Intn(10))
		evs[i] = Event{U: int32(rng.Intn(100)), V: int32(rng.Intn(100)), T: tcur}
	}
	return mustLog(t, evs, 128)
}

func TestTextRoundTrip(t *testing.T) {
	l := randomLog(t, 1, 250)
	var buf bytes.Buffer
	if err := WriteText(&buf, l); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatalf("ReadText: %v", err)
	}
	if !reflect.DeepEqual(got.Events(), l.Events()) {
		t.Fatal("text round trip changed events")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	l := randomLog(t, 2, 1000)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, l); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if !reflect.DeepEqual(got.Events(), l.Events()) {
		t.Fatal("binary round trip changed events")
	}
	if got.NumVertices() != l.NumVertices() {
		t.Fatalf("NumVertices %d -> %d", l.NumVertices(), got.NumVertices())
	}
}

func TestBinaryRoundTripEmpty(t *testing.T) {
	l := mustLog(t, nil, 7)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, l); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if got.Len() != 0 || got.NumVertices() != 7 {
		t.Fatalf("got len=%d n=%d", got.Len(), got.NumVertices())
	}
}

func TestReadTextSkipsCommentsAndSortsUnsorted(t *testing.T) {
	in := `# header comment
% another comment style

3 4 50
1 2 10
`
	l, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadText: %v", err)
	}
	want := []Event{{U: 1, V: 2, T: 10}, {U: 3, V: 4, T: 50}}
	if !reflect.DeepEqual(l.Events(), want) {
		t.Fatalf("got %v, want %v", l.Events(), want)
	}
}

func TestReadTextRejectsMalformed(t *testing.T) {
	bad := []string{
		"1 2",             // missing timestamp
		"a 2 3",           // non-numeric source
		"1 b 3",           // non-numeric target
		"1 2 c",           // non-numeric time
		"1 2 3.5",         // float time
		"99999999999 2 3", // overflows int32
	}
	for _, in := range bad {
		if _, err := ReadText(strings.NewReader(in)); err == nil {
			t.Errorf("malformed line %q accepted", in)
		}
	}
}

// oversizedHeader is a 52-byte binary log that declares numVertices
// vertices for two events naming only ids 0 and 1.
func oversizedHeader(numVertices uint32) []byte {
	b := []byte(binaryMagic)
	b = binary.LittleEndian.AppendUint32(b, binaryVersion)
	b = binary.LittleEndian.AppendUint32(b, numVertices)
	b = binary.LittleEndian.AppendUint64(b, 2)
	for _, e := range []Event{{U: 0, V: 1, T: 0}, {U: 1, V: 0, T: 30 * 86400}} {
		b = binary.LittleEndian.AppendUint32(b, uint32(e.U))
		b = binary.LittleEndian.AppendUint32(b, uint32(e.V))
		b = binary.LittleEndian.AppendUint64(b, uint64(e.T))
	}
	return b
}

// TestReadBinaryRejectsOversizedVertexCount pins the vertex budget: a
// header may declare at most maxDeclaredVertices vertices, so a tiny
// file cannot make a consumer size its per-vertex arrays at 2^31-1.
func TestReadBinaryRejectsOversizedVertexCount(t *testing.T) {
	in := oversizedHeader(1<<31 - 1)
	if len(in) != 52 {
		t.Fatalf("header is %d bytes, want 52", len(in))
	}
	_, err := ReadBinary(bytes.NewReader(in))
	if err == nil || !strings.HasPrefix(err.Error(), "events: ") {
		t.Fatalf("2^31-1 declared vertices: err = %v, want an events: error", err)
	}
	limit := maxDeclaredVertices(1, 2)
	if l, err := ReadBinary(bytes.NewReader(oversizedHeader(uint32(limit)))); err != nil || l.NumVertices() != int32(limit) {
		t.Fatalf("declared count at the budget (%d): %v", limit, err)
	}
	if _, err := ReadBinary(bytes.NewReader(oversizedHeader(uint32(limit + 1)))); err == nil {
		t.Fatalf("declared count one past the budget (%d) accepted", limit+1)
	}
}

func TestReadBinaryRejectsCorrupt(t *testing.T) {
	l := randomLog(t, 3, 10)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, l); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	full := buf.Bytes()

	if _, err := ReadBinary(bytes.NewReader([]byte("JUNKJUNKJUNKJUNKJUNK"))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := ReadBinary(bytes.NewReader(full[:len(full)-5])); err == nil {
		t.Error("truncated body accepted")
	}
	if _, err := ReadBinary(bytes.NewReader(full[:10])); err == nil {
		t.Error("truncated header accepted")
	}
	// Corrupt the version field.
	bad := append([]byte(nil), full...)
	bad[4] = 0xFF
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
		t.Error("bad version accepted")
	}
	// Implausible count.
	bad2 := append([]byte(nil), full...)
	for i := 12; i < 20; i++ {
		bad2[i] = 0xFF
	}
	if _, err := ReadBinary(bytes.NewReader(bad2)); err == nil {
		t.Error("implausible count accepted")
	}
	// Negative vertex count (top bit of the int32 field set).
	bad3 := append([]byte(nil), full...)
	bad3[11] |= 0x80
	if _, err := ReadBinary(bytes.NewReader(bad3)); err == nil {
		t.Error("negative vertex count accepted")
	}
	// Trailing garbage after the final record.
	padded := append(append([]byte(nil), full...), 0xAB)
	if _, err := ReadBinary(bytes.NewReader(padded)); err == nil {
		t.Error("trailing garbage accepted")
	}
	// An event whose vertex id exceeds the header's vertex count must be
	// rejected by log construction, not silently produce an oversized
	// graph. Record layout: u at offset 20 of the first record.
	bad4 := append([]byte(nil), full...)
	binary.LittleEndian.PutUint32(bad4[20:24], 1<<30)
	if _, err := ReadBinary(bytes.NewReader(bad4)); err == nil {
		t.Error("out-of-range vertex id accepted")
	}
	// A record with a timestamp before its predecessor breaks the
	// sortedness invariant every consumer relies on.
	if l.Len() >= 2 {
		bad5 := append([]byte(nil), full...)
		binary.LittleEndian.PutUint64(bad5[28:36], uint64(1<<40)) // first record's T
		if _, err := ReadBinary(bytes.NewReader(bad5)); err == nil {
			t.Error("unsorted events accepted")
		}
	}
}

// TestReadBinaryFaultInjection verifies the IO fault points surface as
// ordinary errors.
func TestReadBinaryFaultInjection(t *testing.T) {
	defer fault.Reset()
	l := randomLog(t, 4, 5)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, l); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	cancel := fault.Arm(fault.Rule{Point: PointReadBinary, Mode: fault.ModeError, Count: 1})
	defer cancel()
	if _, err := ReadBinary(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("armed read_binary fault did not surface")
	}
	cancel2 := fault.Arm(fault.Rule{Point: PointReadText, Mode: fault.ModeError, Count: 1})
	defer cancel2()
	if _, err := ReadText(strings.NewReader("1 2 3\n")); err == nil {
		t.Fatal("armed read_text fault did not surface")
	}
}
