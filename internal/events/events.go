// Package events defines the temporal edge set model of the paper's
// Section 2.1: an input is a sequence of events <u, v, t> sorted by
// non-decreasing timestamp, and analyses run over a sliding sequence of
// window graphs G_i = G(T_i, T_i+delta) with T_i = T_0 + i*sw.
//
// The package provides the Event and Log types, sliding-window
// arithmetic (WindowSpec), and text/binary serialization of event logs.
package events

import (
	"errors"
	"fmt"
	"sort"
)

// Event is a single temporal relational event: an edge from U to V that
// occurred at integer timestamp T. Timestamps are opaque integers; the
// interpretation (seconds, days, ...) belongs to the dataset.
type Event struct {
	U, V int32
	T    int64
}

// Log is a temporal edge set: a sequence of events sorted by
// non-decreasing timestamp, over the vertex set [0, NumVertices).
//
// A Log is immutable once constructed; all derived structures (temporal
// CSR, streaming batches, offline slices) read from the same backing
// slice without copying.
type Log struct {
	events      []Event
	numVertices int32
	symmetric   bool // made by Symmetrize (or cloned from such a log)
}

// ErrUnsorted is returned by NewLog when the event sequence is not in
// non-decreasing timestamp order.
var ErrUnsorted = errors.New("events: log is not sorted by timestamp")

// NewLog validates evs and wraps it as a Log. The slice is retained; the
// caller must not modify it afterwards. Events must be sorted by
// non-decreasing T (the paper's input assumption) and vertex ids must be
// non-negative. numVertices must be larger than every vertex id; pass 0
// to infer it as max(id)+1.
func NewLog(evs []Event, numVertices int32) (*Log, error) {
	maxID := int32(-1)
	for i, e := range evs {
		if e.U < 0 || e.V < 0 {
			return nil, fmt.Errorf("events: event %d has negative vertex id (%d, %d)", i, e.U, e.V)
		}
		if i > 0 && e.T < evs[i-1].T {
			return nil, ErrUnsorted
		}
		if e.U > maxID {
			maxID = e.U
		}
		if e.V > maxID {
			maxID = e.V
		}
	}
	if numVertices == 0 {
		numVertices = maxID + 1
	}
	if maxID >= numVertices {
		return nil, fmt.Errorf("events: vertex id %d out of range [0, %d)", maxID, numVertices)
	}
	return &Log{events: evs, numVertices: numVertices}, nil
}

// NewLogSorted sorts evs by timestamp (stably, preserving input order of
// simultaneous events) and wraps it as a Log. Unlike NewLog it never
// returns ErrUnsorted.
func NewLogSorted(evs []Event, numVertices int32) (*Log, error) {
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].T < evs[j].T })
	return NewLog(evs, numVertices)
}

// Len reports the number of events |Events|.
func (l *Log) Len() int { return len(l.events) }

// NumVertices reports the size of the vertex set V.
func (l *Log) NumVertices() int32 { return l.numVertices }

// Events exposes the underlying time-sorted slice. Callers must treat
// it as read-only.
func (l *Log) Events() []Event { return l.events }

// At returns the i-th event.
func (l *Log) At(i int) Event { return l.events[i] }

// TimeRange returns the timestamps of the first and last event. It
// returns (0, 0, false) when the log is empty.
func (l *Log) TimeRange() (first, last int64, ok bool) {
	if len(l.events) == 0 {
		return 0, 0, false
	}
	return l.events[0].T, l.events[len(l.events)-1].T, true
}

// Slice returns the contiguous sub-slice of events with ts <= T <= te.
// Because the log is time-sorted this is two binary searches; the
// offline execution model uses it to extract each window's events.
func (l *Log) Slice(ts, te int64) []Event {
	if te < ts {
		return nil
	}
	lo := sort.Search(len(l.events), func(i int) bool { return l.events[i].T >= ts })
	hi := sort.Search(len(l.events), func(i int) bool { return l.events[i].T > te })
	return l.events[lo:hi]
}

// CountInRange reports how many events have ts <= T <= te.
func (l *Log) CountInRange(ts, te int64) int { return len(l.Slice(ts, te)) }

// Symmetric reports whether the log is known to hold every event's
// reverse at the same timestamp: it was made by Symmetrize, or cloned
// from a log that was. Every other constructor leaves it false, even
// for a log that happens to be symmetric; nothing checks the events.
func (l *Log) Symmetric() bool { return l.symmetric }

// Symmetrize returns a new Log in which every event (u, v, t) with
// u != v is accompanied by (v, u, t). The paper's running example
// (Fig. 3) stores the graph this way: 14 events become 28 CSR entries.
// Self-loops are kept single. The result is sorted, shares no backing
// storage with the receiver, and is marked Symmetric.
func (l *Log) Symmetrize() *Log {
	out := make([]Event, 0, 2*len(l.events))
	for _, e := range l.events {
		out = append(out, e)
		if e.U != e.V {
			out = append(out, Event{U: e.V, V: e.U, T: e.T})
		}
	}
	// The input is time-sorted and we emit pairs at equal T, so the
	// output is already time-sorted.
	return &Log{events: out, numVertices: l.numVertices, symmetric: true}
}

// Clone returns a deep copy of the log, Symmetric mark included.
func (l *Log) Clone() *Log {
	evs := make([]Event, len(l.events))
	copy(evs, l.events)
	return &Log{events: evs, numVertices: l.numVertices, symmetric: l.symmetric}
}
