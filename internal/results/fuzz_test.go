package results

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzRead asserts the series decoder never panics on corrupt input,
// never allocates more than a constant per input byte plus one chunk
// (readAllocBudget), and that anything it accepts satisfies the full validation contract:
// structurally consistent windows (sequential labels, sorted in-range
// vertices, positive finite ranks) that survive a Write/Read round
// trip unchanged. Together these are the properties internal/serve
// relies on to build a RankStore without re-checking the data.
func FuzzRead(f *testing.F) {
	src := randomSource(3)
	var buf bytes.Buffer
	_ = Write(&buf, src)
	f.Add(buf.Bytes())
	f.Add([]byte("PMRS"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, in []byte) {
		var s *Series
		var err error
		alloc := allocatedBy(func() { s, err = Read(bytes.NewReader(in)) })
		if budget := readAllocBudget(len(in)); alloc > budget {
			t.Fatalf("Read allocated %d bytes for a %d-byte input (budget %d, err %v)", alloc, len(in), budget, err)
		}
		if err != nil {
			return
		}
		// Accepted input must be internally consistent.
		if len(s.Windows) != s.Spec.Count {
			t.Fatalf("accepted series with %d windows for count %d", len(s.Windows), s.Spec.Count)
		}
		if s.NumVertices < 0 {
			t.Fatalf("accepted negative vertex count %d", s.NumVertices)
		}
		for i := range s.Windows {
			w := s.Window(i)
			if err := w.Validate(i, s.NumVertices); err != nil {
				t.Fatalf("accepted window violating its own invariants: %v", err)
			}
			// Dense must be safe on anything the decoder accepted; cap the
			// expansion so the fuzzer cannot make the harness allocate
			// gigabytes for a legitimately huge (but valid) header.
			if s.NumVertices <= 1<<16 {
				_ = w.Dense(s.NumVertices)
			}
		}
		// Valid-roundtrip property: an accepted series re-serializes and
		// decodes to itself.
		var out bytes.Buffer
		if err := Write(&out, s); err != nil {
			t.Fatalf("accepted series fails to re-serialize: %v", err)
		}
		s2, err := Read(&out)
		if err != nil {
			t.Fatalf("re-serialized series rejected: %v", err)
		}
		if !reflect.DeepEqual(s, s2) {
			t.Fatal("series not stable under Write/Read round trip")
		}
	})
}
