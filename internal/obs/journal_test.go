package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestJournalAppendSinceAndEviction(t *testing.T) {
	j := NewJournal(8)
	if got := j.LastSeq(); got != 0 {
		t.Fatalf("empty journal LastSeq = %d, want 0", got)
	}
	for w := 0; w < 5; w++ {
		j.EmitWindowDone(w, 0, "ok", 3, 0, 1e-9, true, 0.01)
	}
	if got := j.LastSeq(); got != 5 {
		t.Fatalf("LastSeq = %d, want 5", got)
	}
	evs, complete := j.Since(2)
	if !complete {
		t.Fatalf("Since(2) reported incomplete with nothing evicted")
	}
	if len(evs) != 3 || evs[0].Seq != 3 || evs[2].Seq != 5 {
		t.Fatalf("Since(2) = %d events, seqs %v..%v; want 3..5", len(evs), evs[0].Seq, evs[len(evs)-1].Seq)
	}
	// Push past capacity: only the 8 most recent remain.
	for w := 5; w < 20; w++ {
		j.EmitWindowDone(w, 0, "ok", 3, 0, 1e-9, true, 0.01)
	}
	evs, complete = j.Since(0)
	if complete {
		t.Fatalf("Since(0) after eviction claims completeness")
	}
	if len(evs) != 8 || evs[0].Seq != 13 || evs[7].Seq != 20 {
		t.Fatalf("post-eviction Since(0): %d events starting %d; want 8 starting 13", len(evs), evs[0].Seq)
	}
	for i, e := range evs {
		if e.Window != int(e.Seq)-1 {
			t.Fatalf("event %d: window %d does not match seq %d payload", i, e.Window, e.Seq)
		}
	}
}

func TestJournalNilSafety(t *testing.T) {
	var j *Journal
	j.Append(Event{Type: EvCancel})
	j.EmitRunStart(1, "nested", 2, "gauss-seidel")
	j.EmitWindowDone(0, 0, "ok", 1, 0, 0, true, 0)
	if got := j.LastSeq(); got != 0 {
		t.Fatalf("nil journal LastSeq = %d", got)
	}
	if evs, _ := j.Since(0); evs != nil {
		t.Fatalf("nil journal Since returned events")
	}
	if err := j.CloseSink(); err != nil {
		t.Fatalf("nil journal CloseSink: %v", err)
	}
}

func TestJournalSubscribeDropAndMarkLagged(t *testing.T) {
	j := NewJournal(1024)
	sub := j.Subscribe(4)
	defer sub.Close()
	for w := 0; w < 100; w++ {
		j.EmitWindowDone(w, 0, "ok", 1, 0, 0, true, 0)
	}
	if got := sub.Dropped(); got != 96 {
		t.Fatalf("Dropped = %d, want 96 (buffer 4, 100 events)", got)
	}
	// The buffered prefix is contiguous from seq 1: drops only ever trim
	// the tail between receives, never reorder.
	want := uint64(1)
	for {
		select {
		case e := <-sub.C():
			if e.Seq != want {
				t.Fatalf("buffered event seq %d, want %d", e.Seq, want)
			}
			want++
		default:
			if want != 5 {
				t.Fatalf("drained %d events, want 4", want-1)
			}
			// The consumer recovers the gap from the ring.
			evs, _ := j.Since(want - 1)
			if len(evs) != 96 || evs[0].Seq != 5 {
				t.Fatalf("recovery Since(%d): %d events starting %d", want-1, len(evs), evs[0].Seq)
			}
			return
		}
	}
}

// TestJournalConcurrentAppendSubscribe exercises the journal under
// -race: parallel appenders, several draining subscribers, and ring
// readers all at once. Each subscriber must observe strictly increasing
// sequence numbers (gaps are legal, reordering is not).
func TestJournalConcurrentAppendSubscribe(t *testing.T) {
	const (
		appenders = 4
		perApp    = 500
		readers   = 3
	)
	j := NewJournal(256)
	var producers, consumers sync.WaitGroup

	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		sub := j.Subscribe(64)
		consumers.Add(1)
		go func(sub *Subscription) {
			defer consumers.Done()
			defer sub.Close()
			var last uint64
			for {
				select {
				case e := <-sub.C():
					if e.Seq <= last {
						t.Errorf("subscriber saw seq %d after %d", e.Seq, last)
						return
					}
					last = e.Seq
				case <-stop:
					return
				}
			}
		}(sub)
	}
	for a := 0; a < appenders; a++ {
		producers.Add(1)
		go func(a int) {
			defer producers.Done()
			for i := 0; i < perApp; i++ {
				j.EmitWindowDone(i, a, "ok", 1, 0, 1e-9, true, 0.001)
				if i%100 == 0 {
					j.Since(j.LastSeq() / 2) // concurrent ring reads
				}
			}
		}(a)
	}
	producers.Wait()
	close(stop)
	consumers.Wait()
	total := uint64(appenders * perApp)
	if got := j.LastSeq(); got != total {
		t.Fatalf("LastSeq = %d, want %d", got, total)
	}
	evs, _ := j.Since(0)
	if len(evs) != 256 {
		t.Fatalf("ring holds %d events, want capacity 256", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("ring events not contiguous at %d: %d -> %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
}

func TestSubscribeSinceMissesNothing(t *testing.T) {
	j := NewJournal(64)
	for w := 0; w < 10; w++ {
		j.EmitWindowDone(w, 0, "ok", 1, 0, 0, true, 0)
	}
	replay, sub := j.SubscribeSince(4, 64)
	defer sub.Close()
	for w := 10; w < 15; w++ {
		j.EmitWindowDone(w, 0, "ok", 1, 0, 0, true, 0)
	}
	var seqs []uint64
	for _, e := range replay {
		seqs = append(seqs, e.Seq)
	}
	for len(seqs) < 11 {
		seqs = append(seqs, (<-sub.C()).Seq)
	}
	for i, s := range seqs {
		if want := uint64(5 + i); s != want {
			t.Fatalf("combined stream seq[%d] = %d, want %d (seqs %v)", i, s, want, seqs)
		}
	}
}

func TestJournalSinkWritesJSONL(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(16)
	j.SetSink(&buf)
	j.EmitRunStart(3, "nested", 2, "gauss-seidel")
	j.EmitWindowStart(0, 1)
	j.EmitWindowDone(0, 1, "ok", 7, 0, 3.5e-9, true, 0.25)
	j.EmitRunEnd("completed", 3, 3, 1.5, "")
	if err := j.CloseSink(); err != nil {
		t.Fatalf("CloseSink: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("sink wrote %d lines, want 4:\n%s", len(lines), buf.String())
	}
	types := []EventType{EvRunStart, EvWindowStart, EvWindowDone, EvRunEnd}
	for i, line := range lines {
		var m map[string]interface{}
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", i, err, line)
		}
		if got := m["seq"].(float64); got != float64(i+1) {
			t.Fatalf("line %d seq = %v", i, got)
		}
		if got := m["type"].(string); got != string(types[i]) {
			t.Fatalf("line %d type = %q, want %q", i, got, types[i])
		}
		if _, ok := m["time_unix_nano"]; !ok {
			t.Fatalf("line %d missing time_unix_nano", i)
		}
	}
	var done map[string]interface{}
	if err := json.Unmarshal([]byte(lines[2]), &done); err != nil {
		t.Fatal(err)
	}
	if done["window"].(float64) != 0 || done["worker"].(float64) != 1 ||
		done["status"].(string) != "ok" || done["iterations"].(float64) != 7 {
		t.Fatalf("window_done fields wrong: %v", done)
	}
}

func TestEventAppendJSONEscapesErrors(t *testing.T) {
	e := Event{Seq: 1, Type: EvQuarantine, Window: 2, Worker: 0, Attempt: 3,
		Err: "bad \"quote\" and\nnewline"}
	b := e.AppendJSON(nil)
	var m map[string]interface{}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatalf("escaped event is not valid JSON: %v\n%s", err, b)
	}
	if m["err"].(string) != "bad \"quote\" and\nnewline" {
		t.Fatalf("error text did not round-trip: %q", m["err"])
	}
}
