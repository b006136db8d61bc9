package events

import (
	"errors"
	"fmt"
)

// WindowSpec describes the sliding-window derivation of a temporal graph
// (paper Sec. 2.1): window i covers the closed time interval
// [Start(i), End(i)] = [T0 + i*Slide, T0 + i*Slide + Delta], for
// i in [0, Count).
type WindowSpec struct {
	// T0 is the start time of the first window (usually the timestamp
	// of the first event in the dataset).
	T0 int64
	// Delta is the window size delta (inclusive width of each window).
	Delta int64
	// Slide is the sliding offset sw between consecutive windows.
	Slide int64
	// Count is the number of windows in the sequence (m+1 in the paper).
	Count int
}

var (
	errBadDelta = errors.New("events: window size delta must be >= 0")
	errBadSlide = errors.New("events: sliding offset must be > 0")
	errBadCount = errors.New("events: window count must be > 0")
)

// Validate checks the spec parameters.
func (w WindowSpec) Validate() error {
	if w.Delta < 0 {
		return errBadDelta
	}
	if w.Slide <= 0 {
		return errBadSlide
	}
	if w.Count <= 0 {
		return errBadCount
	}
	return nil
}

// Start returns T_i, the beginning of window i.
func (w WindowSpec) Start(i int) int64 { return w.T0 + int64(i)*w.Slide }

// End returns T_i + delta, the inclusive end of window i.
func (w WindowSpec) End(i int) int64 { return w.Start(i) + w.Delta }

// Interval returns [Start(i), End(i)].
func (w WindowSpec) Interval(i int) (ts, te int64) { return w.Start(i), w.End(i) }

// Contains reports whether timestamp t falls inside window i.
func (w WindowSpec) Contains(i int, t int64) bool {
	return t >= w.Start(i) && t <= w.End(i)
}

// Covering returns the closed range [lo, hi] of window indices whose
// interval contains timestamp t, clamped to [0, Count). ok is false when
// no window contains t (possible when Slide > Delta leaves gaps, or t is
// outside the analyzed span).
//
// The closed form is the one tcsr.Build assigns events to multi-window
// graphs with: t is in window i
// iff T0 + i*Slide <= t <= T0 + i*Slide + Delta, i.e.
// ceil((t-T0-Delta)/Slide) <= i <= floor((t-T0)/Slide).
func (w WindowSpec) Covering(t int64) (lo, hi int, ok bool) {
	d := t - w.T0
	if d < 0 {
		return 0, -1, false
	}
	hi64 := floorDiv(d, w.Slide)
	lo64 := ceilDiv(d-w.Delta, w.Slide)
	if lo64 < 0 {
		lo64 = 0
	}
	if hi64 >= int64(w.Count) {
		hi64 = int64(w.Count) - 1
	}
	if lo64 > hi64 {
		return 0, -1, false
	}
	return int(lo64), int(hi64), true
}

// Sub returns the spec describing windows [from, to) of w as a
// standalone sequence. Multi-window graphs use it to reason about their
// share of the window sequence.
func (w WindowSpec) Sub(from, to int) WindowSpec {
	return WindowSpec{
		T0:    w.Start(from),
		Delta: w.Delta,
		Slide: w.Slide,
		Count: to - from,
	}
}

// SpanEnd returns the inclusive end of the last window.
func (w WindowSpec) SpanEnd() int64 { return w.End(w.Count - 1) }

// String renders the spec compactly for logs and errors.
func (w WindowSpec) String() string {
	return fmt.Sprintf("windows{t0=%d delta=%d sw=%d count=%d}", w.T0, w.Delta, w.Slide, w.Count)
}

// Span constructs the spec the paper implies for a dataset: the first
// window starts at the dataset's first timestamp and windows are added
// while their start lies at or before the last timestamp. It returns an
// error for an empty log or invalid parameters.
func Span(l *Log, delta, slide int64) (WindowSpec, error) {
	first, last, ok := l.TimeRange()
	if !ok {
		return WindowSpec{}, errors.New("events: cannot derive windows from an empty log")
	}
	if delta < 0 {
		return WindowSpec{}, errBadDelta
	}
	if slide <= 0 {
		return WindowSpec{}, errBadSlide
	}
	count := int(floorDiv(last-first, slide)) + 1
	w := WindowSpec{T0: first, Delta: delta, Slide: slide, Count: count}
	if err := w.Validate(); err != nil {
		return WindowSpec{}, err
	}
	return w, nil
}

// SpanCount is like Span but fixes the number of windows and derives no
// relationship to the last event; windows may extend past the data.
func SpanCount(l *Log, delta, slide int64, count int) (WindowSpec, error) {
	first, _, ok := l.TimeRange()
	if !ok {
		return WindowSpec{}, errors.New("events: cannot derive windows from an empty log")
	}
	w := WindowSpec{T0: first, Delta: delta, Slide: slide, Count: count}
	if err := w.Validate(); err != nil {
		return WindowSpec{}, err
	}
	return w, nil
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

func ceilDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) == (b < 0) {
		q++
	}
	return q
}
