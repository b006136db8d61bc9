package events

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func mustLog(t *testing.T, evs []Event, n int32) *Log {
	t.Helper()
	l, err := NewLog(evs, n)
	if err != nil {
		t.Fatalf("NewLog: %v", err)
	}
	return l
}

func TestNewLogValidates(t *testing.T) {
	if _, err := NewLog([]Event{{U: 0, V: 1, T: 5}, {U: 1, V: 2, T: 3}}, 0); err != ErrUnsorted {
		t.Fatalf("unsorted log: got err %v, want ErrUnsorted", err)
	}
	if _, err := NewLog([]Event{{U: -1, V: 1, T: 5}}, 0); err == nil {
		t.Fatal("negative vertex id accepted")
	}
	if _, err := NewLog([]Event{{U: 0, V: 7, T: 5}}, 4); err == nil {
		t.Fatal("vertex id beyond declared NumVertices accepted")
	}
}

func TestNewLogInfersNumVertices(t *testing.T) {
	l := mustLog(t, []Event{{U: 3, V: 9, T: 1}, {U: 2, V: 2, T: 4}}, 0)
	if got := l.NumVertices(); got != 10 {
		t.Fatalf("NumVertices = %d, want 10 (max id + 1)", got)
	}
}

func TestNewLogEmpty(t *testing.T) {
	l := mustLog(t, nil, 0)
	if l.Len() != 0 {
		t.Fatalf("Len = %d, want 0", l.Len())
	}
	if _, _, ok := l.TimeRange(); ok {
		t.Fatal("TimeRange on empty log reported ok")
	}
	if got := l.Slice(0, 100); len(got) != 0 {
		t.Fatalf("Slice on empty log returned %d events", len(got))
	}
}

func TestNewLogSortedSorts(t *testing.T) {
	evs := []Event{{U: 0, V: 1, T: 9}, {U: 1, V: 2, T: 3}, {U: 2, V: 3, T: 7}}
	l, err := NewLogSorted(evs, 0)
	if err != nil {
		t.Fatalf("NewLogSorted: %v", err)
	}
	got := l.Events()
	for i := 1; i < len(got); i++ {
		if got[i].T < got[i-1].T {
			t.Fatalf("not sorted at %d: %v", i, got)
		}
	}
}

func TestNewLogSortedStable(t *testing.T) {
	// Simultaneous events must keep their input order.
	evs := []Event{{U: 5, V: 6, T: 2}, {U: 1, V: 2, T: 1}, {U: 3, V: 4, T: 1}}
	l, err := NewLogSorted(evs, 0)
	if err != nil {
		t.Fatalf("NewLogSorted: %v", err)
	}
	want := []Event{{U: 1, V: 2, T: 1}, {U: 3, V: 4, T: 1}, {U: 5, V: 6, T: 2}}
	if !reflect.DeepEqual(l.Events(), want) {
		t.Fatalf("got %v, want %v", l.Events(), want)
	}
}

func TestSliceBoundsInclusive(t *testing.T) {
	l := mustLog(t, []Event{
		{U: 0, V: 1, T: 10},
		{U: 1, V: 2, T: 20},
		{U: 2, V: 3, T: 20},
		{U: 3, V: 4, T: 30},
	}, 0)
	cases := []struct {
		ts, te int64
		want   int
	}{
		{10, 30, 4},
		{10, 29, 3},
		{11, 30, 3},
		{20, 20, 2},
		{31, 40, 0},
		{0, 9, 0},
		{30, 10, 0}, // inverted range
	}
	for _, c := range cases {
		if got := len(l.Slice(c.ts, c.te)); got != c.want {
			t.Errorf("Slice(%d, %d) has %d events, want %d", c.ts, c.te, got, c.want)
		}
	}
}

func TestSliceMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	evs := make([]Event, 500)
	tcur := int64(0)
	for i := range evs {
		tcur += int64(rng.Intn(5))
		evs[i] = Event{U: int32(rng.Intn(50)), V: int32(rng.Intn(50)), T: tcur}
	}
	l := mustLog(t, evs, 0)
	for trial := 0; trial < 200; trial++ {
		ts := int64(rng.Intn(int(tcur) + 10))
		te := ts + int64(rng.Intn(100))
		want := 0
		for _, e := range evs {
			if e.T >= ts && e.T <= te {
				want++
			}
		}
		if got := l.CountInRange(ts, te); got != want {
			t.Fatalf("CountInRange(%d, %d) = %d, want %d", ts, te, got, want)
		}
	}
}

func TestSymmetrize(t *testing.T) {
	l := mustLog(t, []Event{
		{U: 0, V: 1, T: 1},
		{U: 2, V: 2, T: 2}, // self-loop stays single
		{U: 1, V: 3, T: 3},
	}, 0)
	s := l.Symmetrize()
	if s.Len() != 5 {
		t.Fatalf("symmetrized length = %d, want 5", s.Len())
	}
	want := []Event{
		{U: 0, V: 1, T: 1}, {U: 1, V: 0, T: 1},
		{U: 2, V: 2, T: 2},
		{U: 1, V: 3, T: 3}, {U: 3, V: 1, T: 3},
	}
	if !reflect.DeepEqual(s.Events(), want) {
		t.Fatalf("got %v, want %v", s.Events(), want)
	}
	if s.NumVertices() != l.NumVertices() {
		t.Fatalf("NumVertices changed: %d -> %d", l.NumVertices(), s.NumVertices())
	}
	// Symmetrize marks its result and Clone keeps the mark; a log read
	// back from a symmetrized log's bytes is not marked.
	var buf bytes.Buffer
	if err := WriteBinary(&buf, s); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	read, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if l.Symmetric() || !s.Symmetric() || !s.Clone().Symmetric() || l.Clone().Symmetric() || read.Symmetric() {
		t.Fatalf("Symmetric: log %v, symmetrized %v, their clones %v and %v, read back %v",
			l.Symmetric(), s.Symmetric(), l.Clone().Symmetric(), s.Clone().Symmetric(), read.Symmetric())
	}
}

func TestSymmetrizePaperExampleCardinality(t *testing.T) {
	// The paper's Fig. 3: 14 directed-free events become 28 CSR entries.
	evs := make([]Event, 14)
	for i := range evs {
		evs[i] = Event{U: int32(i % 7), V: int32((i + 1) % 7), T: int64(i)}
	}
	l := mustLog(t, evs, 0)
	if got := l.Symmetrize().Len(); got != 28 {
		t.Fatalf("symmetrized length = %d, want 28", got)
	}
}

func TestSymmetrizeSortedProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		evs := make([]Event, len(raw))
		for i, r := range raw {
			evs[i] = Event{U: int32(r % 97), V: int32(r / 97 % 97), T: int64(i)}
		}
		l, err := NewLog(evs, 0)
		if err != nil {
			return len(evs) == 0 // only empty inference edge cases
		}
		s := l.Symmetrize()
		for i := 1; i < s.Len(); i++ {
			if s.At(i).T < s.At(i-1).T {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClone(t *testing.T) {
	l := mustLog(t, []Event{{U: 0, V: 1, T: 1}}, 5)
	c := l.Clone()
	c.events[0].T = 99
	if l.At(0).T != 1 {
		t.Fatal("Clone shares backing storage")
	}
	if c.NumVertices() != 5 {
		t.Fatalf("Clone NumVertices = %d, want 5", c.NumVertices())
	}
}
