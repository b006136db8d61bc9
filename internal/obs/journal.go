// This file implements the run journal: a bounded, sequence-numbered
// ring of Events with subscriber fan-out, an optional JSONL sink, and
// the reducer (views.go) that derives every other view from the stream.
//
// One mutex guards all of it. Appends happen at window and stage
// boundaries, never inside kernel iteration loops, and copy a
// fixed-size Event, update atomics, and make non-blocking sends, so the
// steady state allocates nothing. A subscriber whose buffer is full
// misses the event (drop-and-mark-lagged): it sees the seq gap and can
// re-read whatever the ring still holds.

package obs

import (
	"bufio"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultJournalCapacity is the ring size NewJournal uses when the
// caller passes 0: enough to hold the full event stream of a
// several-thousand-window run (roughly 4 events per window).
const DefaultJournalCapacity = 16384

// Journal is a bounded ring of sequence-numbered events with
// subscriber fan-out. The zero value is not usable; construct with
// NewJournal. All methods are safe for concurrent use, and every
// emit-style method is a no-op on a nil *Journal so instrumentation
// sites need no nil guards.
type Journal struct {
	mu   sync.Mutex
	ring []Event // fixed capacity; slot for seq s is ring[(s-1)%cap]
	next uint64  // seq the next append receives (starts at 1)
	subs []*Subscription
	view views

	sink    *bufio.Writer
	sinkBuf []byte // reusable JSONL encode buffer
	sinkErr error
}

// NewJournal creates a journal holding the most recent capacity events
// (0 = DefaultJournalCapacity).
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultJournalCapacity
	}
	return &Journal{ring: make([]Event, capacity), next: 1, view: newViews()}
}

// LastSeq returns the sequence number of the most recent event (0 =
// nothing appended yet).
func (j *Journal) LastSeq() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.next - 1
}

// Append stamps e with the next sequence number and the current time,
// applies it to the reducer, stores it in the ring (evicting the
// oldest event once full), fans it out to subscribers, and writes it
// to the sink when one is attached. The reducer runs first, under the
// same lock, so every derived view has counted an event before any
// consumer sees it. Nil-safe: a nil journal ignores the event.
func (j *Journal) Append(e Event) {
	if j == nil {
		return
	}
	now := time.Now().UnixNano()
	j.mu.Lock()
	e.Seq = j.next
	e.TimeUnixNano = now
	j.next++
	j.view.apply(&e)
	j.ring[(e.Seq-1)%uint64(len(j.ring))] = e
	for _, s := range j.subs {
		select {
		case s.ch <- e:
		default:
			// Drop-and-mark-lagged: the subscriber keeps its ordering (it
			// only ever misses a contiguous run of events, visible as a
			// seq gap) and the journal never blocks on a slow consumer.
			s.dropped.Add(1)
		}
	}
	if j.sink != nil && j.sinkErr == nil {
		j.sinkBuf = e.AppendJSON(j.sinkBuf[:0])
		j.sinkBuf = append(j.sinkBuf, '\n')
		if _, err := j.sink.Write(j.sinkBuf); err != nil {
			j.sinkErr = err
		}
	}
	j.mu.Unlock()
}

// Since returns a copy of the ring events with sequence numbers in
// (after, LastSeq], oldest first. complete is false when events in
// that range were already evicted from the ring (the returned slice
// then starts at the oldest retained event, and the caller knows it
// has a gap).
func (j *Journal) Since(after uint64) (events []Event, complete bool) {
	if j == nil {
		return nil, true
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.sinceLocked(after)
}

func (j *Journal) sinceLocked(after uint64) (events []Event, complete bool) {
	last := j.next - 1
	if last == 0 || after >= last {
		return nil, true
	}
	oldest := uint64(1)
	if last > uint64(len(j.ring)) {
		oldest = last - uint64(len(j.ring)) + 1
	}
	complete = after+1 >= oldest
	from := after + 1
	if from < oldest {
		from = oldest
	}
	events = make([]Event, 0, last-from+1)
	for s := from; s <= last; s++ {
		events = append(events, j.ring[(s-1)%uint64(len(j.ring))])
	}
	return events, complete
}

// Subscription is one consumer's view of the journal: a buffered
// channel of live events plus a drop counter for the lag policy.
type Subscription struct {
	j       *Journal
	ch      chan Event
	dropped atomic.Uint64
}

// C is the subscription's event channel. It is never closed by the
// journal; consumers stop by calling Close and draining.
func (s *Subscription) C() <-chan Event { return s.ch }

// Dropped returns how many events were dropped for this subscriber
// because its buffer was full. A consumer that sees the counter
// advance (or a gap in sequence numbers) can recover whatever is still
// buffered with Journal.Since.
func (s *Subscription) Dropped() uint64 { return s.dropped.Load() }

// Close unsubscribes. Events already buffered in C remain readable.
func (s *Subscription) Close() {
	j := s.j
	j.mu.Lock()
	for i, sub := range j.subs {
		if sub == s {
			j.subs = append(j.subs[:i], j.subs[i+1:]...)
			break
		}
	}
	j.mu.Unlock()
}

// Subscribe registers a consumer with the given channel buffer
// (0 = 256). Events appended after the call are delivered; use
// SubscribeSince to also replay the retained past atomically.
func (j *Journal) Subscribe(buffer int) *Subscription {
	_, sub := j.SubscribeSince(j.LastSeq(), buffer)
	return sub
}

// SubscribeSince atomically snapshots the retained events after seq
// `after` and registers a subscription for everything newer, so the
// caller misses nothing between replay and live delivery. complete is
// false when part of the requested range was already evicted (see
// Since).
func (j *Journal) SubscribeSince(after uint64, buffer int) (replay []Event, sub *Subscription) {
	if buffer <= 0 {
		buffer = 256
	}
	sub = &Subscription{j: j, ch: make(chan Event, buffer)}
	j.mu.Lock()
	replay, _ = j.sinceLocked(after)
	j.subs = append(j.subs, sub)
	j.mu.Unlock()
	return replay, sub
}

// SetSink attaches a writer that receives every subsequent event as
// one JSON line (the -journal-out format). Writes are buffered; call
// CloseSink to flush. Passing nil detaches the current sink without
// flushing it.
func (j *Journal) SetSink(w io.Writer) {
	j.mu.Lock()
	if w == nil {
		j.sink = nil
	} else {
		j.sink = bufio.NewWriter(w)
	}
	j.sinkErr = nil
	j.mu.Unlock()
}

// CloseSink flushes and detaches the sink, returning the first write
// error encountered (if any). The underlying writer is not closed; the
// caller owns it.
func (j *Journal) CloseSink() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.sink == nil {
		return j.sinkErr
	}
	err := j.sink.Flush()
	if j.sinkErr == nil {
		j.sinkErr = err
	}
	j.sink = nil
	return j.sinkErr
}

// The Emit* helpers construct and append one event each. All are
// nil-safe, so pipeline code calls them unconditionally and pays a
// single nil check when no journal is attached.

// EmitRunStart records a run beginning and the sweep update its
// windows run.
func (j *Journal) EmitRunStart(windows int, mode string, workers int, update string) {
	j.Append(Event{Type: EvRunStart, Window: -1, Worker: -1,
		Windows: windows, Mode: mode, Workers: workers, Update: update})
}

// EmitRunEnd records a run finishing with the given status
// ("completed", "canceled", "failed"), progress, and wall time.
func (j *Journal) EmitRunEnd(status string, done, windows int, seconds float64, errMsg string) {
	j.Append(Event{Type: EvRunEnd, Window: -1, Worker: -1,
		Status: status, Done: done, Windows: windows, Seconds: seconds, Err: errMsg})
}

// EmitStageStart records a pipeline stage beginning.
func (j *Journal) EmitStageStart(stage string) {
	j.Append(Event{Type: EvStageStart, Window: -1, Worker: -1, Stage: stage})
}

// EmitStageEnd records a pipeline stage finishing; errMsg is empty on
// success.
func (j *Journal) EmitStageEnd(stage string, seconds float64, errMsg string) {
	j.Append(Event{Type: EvStageEnd, Window: -1, Worker: -1,
		Stage: stage, Seconds: seconds, Err: errMsg})
}

// EmitWindowStart records a window's solve beginning on a worker.
func (j *Journal) EmitWindowStart(window, worker int) {
	j.Append(Event{Type: EvWindowStart, Window: window, Worker: worker})
}

// EmitWindowDone records a window decided; core is the vertex count
// its iterations ran over (Event.Core).
func (j *Journal) EmitWindowDone(window, worker int, status string, iterations, core int, residual float64, converged bool, seconds float64) {
	j.Append(Event{Type: EvWindowDone, Window: window, Worker: worker, Status: status,
		Iterations: iterations, Core: core, Residual: residual, Converged: converged, Seconds: seconds})
}

// EmitRetry records a failed attempt being retried; panicked marks a
// recovered panic.
func (j *Journal) EmitRetry(window, worker, attempt int, errMsg string, panicked bool) {
	j.Append(Event{Type: EvRetry, Window: window, Worker: worker, Attempt: attempt, Err: errMsg, Panicked: panicked})
}

// EmitDegrade records a window falling back to a serial re-solve;
// panicked marks a panic as the last failure before it.
func (j *Journal) EmitDegrade(window, worker int, panicked bool) {
	j.Append(Event{Type: EvDegrade, Window: window, Worker: worker, Panicked: panicked})
}

// EmitQuarantine records a window failing terminally; panicked marks a
// recovered panic among the failures.
func (j *Journal) EmitQuarantine(window, worker, attempt int, errMsg string, panicked bool) {
	j.Append(Event{Type: EvQuarantine, Window: window, Worker: worker, Attempt: attempt, Err: errMsg, Panicked: panicked})
}

// EmitCheckpointWrite records a window flushed to the checkpoint store;
// errMsg is set when the write failed.
func (j *Journal) EmitCheckpointWrite(window int, errMsg string) {
	j.Append(Event{Type: EvCheckpointWrite, Window: window, Worker: -1, Err: errMsg})
}

// EmitCheckpointResume records a window restored from a checkpoint.
func (j *Journal) EmitCheckpointResume(window int) {
	j.Append(Event{Type: EvCheckpointResume, Window: window, Worker: -1})
}

// EmitCancel records the run observing cancellation.
func (j *Journal) EmitCancel(done, windows int) {
	j.Append(Event{Type: EvCancel, Window: -1, Worker: -1, Done: done, Windows: windows})
}
