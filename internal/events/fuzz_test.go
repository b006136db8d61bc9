package events

import (
	"bytes"
	"testing"
)

// FuzzReadText asserts the text parser never panics and that anything
// it accepts round-trips through WriteText.
func FuzzReadText(f *testing.F) {
	f.Add("1 2 3\n4 5 6\n")
	f.Add("# comment\n\n7\t8\t-9\n")
	f.Add("a b c")
	f.Add("1 2 99999999999999999999")
	f.Fuzz(func(t *testing.T, in string) {
		l, err := ReadText(bytes.NewReader([]byte(in)))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteText(&buf, l); err != nil {
			t.Fatalf("WriteText after successful parse: %v", err)
		}
		back, err := ReadText(&buf)
		if err != nil {
			t.Fatalf("re-parse of own output: %v", err)
		}
		if back.Len() != l.Len() {
			t.Fatalf("round trip changed length %d -> %d", l.Len(), back.Len())
		}
	})
}

// FuzzReadBinary asserts the binary decoder never panics on corrupt
// input and round-trips what it accepts.
func FuzzReadBinary(f *testing.F) {
	l, _ := NewLog([]Event{{U: 0, V: 1, T: 7}, {U: 2, V: 3, T: 9}}, 4)
	var buf bytes.Buffer
	_ = WriteBinary(&buf, l)
	f.Add(buf.Bytes())
	f.Add([]byte("PMEV"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, in []byte) {
		got, err := ReadBinary(bytes.NewReader(in))
		if err != nil {
			return
		}
		maxID := int64(-1)
		for _, e := range got.Events() {
			maxID = max(maxID, int64(e.U), int64(e.V))
		}
		count := uint64(len(in)-len(binaryMagic)-16) / 16
		if limit := maxDeclaredVertices(maxID, count); int64(got.NumVertices()) > limit {
			t.Fatalf("accepted %d vertices from %d bytes (budget %d)", got.NumVertices(), len(in), limit)
		}
		var out bytes.Buffer
		if err := WriteBinary(&out, got); err != nil {
			t.Fatalf("WriteBinary after successful parse: %v", err)
		}
		back, err := ReadBinary(&out)
		if err != nil || back.Len() != got.Len() {
			t.Fatalf("round trip failed: %v", err)
		}
	})
}
