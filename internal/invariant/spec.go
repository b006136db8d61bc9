package invariant

import (
	"pmpr/internal/events"
)

// CheckWindowSpec validates the sliding-window arithmetic (Sec. 2.1):
// parameter validity, Start/End/Interval agreement, monotone window
// starts, and the Covering closed form the temporal CSR build relies on —
// every window Covering reports must Contain the timestamp and the
// windows just outside the reported range must not.
func CheckWindowSpec(spec events.WindowSpec) error {
	var v violations
	if err := spec.Validate(); err != nil {
		return err
	}
	for _, i := range sampleWindows(spec.Count) {
		ts, te := spec.Interval(i)
		if ts != spec.Start(i) || te != spec.End(i) {
			v.addf("invariant: window %d Interval (%d,%d) disagrees with Start/End (%d,%d)",
				i, ts, te, spec.Start(i), spec.End(i))
		}
		if te != ts+spec.Delta {
			v.addf("invariant: window %d end %d != start %d + delta %d", i, te, ts, spec.Delta)
		}
		if i > 0 && spec.Start(i) != spec.Start(i-1)+spec.Slide {
			v.addf("invariant: window %d start %d != previous start + slide", i, spec.Start(i))
		}
		// Covering must round-trip the window's own boundary timestamps.
		for _, t := range []int64{ts, te} {
			lo, hi, ok := spec.Covering(t)
			if !ok || i < lo || i > hi {
				v.addf("invariant: Covering(%d) = [%d,%d] ok=%v misses window %d which contains it",
					t, lo, hi, ok, i)
			}
		}
	}
	if spec.SpanEnd() != spec.End(spec.Count-1) {
		v.addf("invariant: SpanEnd %d != End(Count-1) %d", spec.SpanEnd(), spec.End(spec.Count-1))
	}
	return v.err()
}

// CheckCoveringAt validates the Covering closed form for one timestamp:
// the reported closed range [lo, hi] contains exactly the windows whose
// interval contains t (verified at the range boundaries and just
// outside them).
func CheckCoveringAt(spec events.WindowSpec, t int64) error {
	var v violations
	lo, hi, ok := spec.Covering(t)
	if !ok {
		// No covering window: t must lie outside every window sampled
		// around the point where it would fall.
		for i := 0; i < spec.Count; i++ {
			if spec.Contains(i, t) {
				v.addf("invariant: Covering(%d) reports no window but window %d contains it", t, i)
				break
			}
		}
		return v.err()
	}
	if lo < 0 || hi >= spec.Count || lo > hi {
		v.addf("invariant: Covering(%d) returned malformed range [%d,%d]", t, lo, hi)
		return v.err()
	}
	for _, i := range []int{lo, hi} {
		if !spec.Contains(i, t) {
			v.addf("invariant: window %d reported by Covering(%d) does not contain it", i, t)
		}
	}
	if lo > 0 && spec.Contains(lo-1, t) {
		v.addf("invariant: window %d contains %d but Covering starts at %d", lo-1, t, lo)
	}
	if hi+1 < spec.Count && spec.Contains(hi+1, t) {
		v.addf("invariant: window %d contains %d but Covering ends at %d", hi+1, t, hi)
	}
	return v.err()
}

// sampleWindows returns the window indices the spec checks visit: all
// of a small sequence, the ends and middle of a large one.
func sampleWindows(count int) []int {
	if count <= 64 {
		out := make([]int, count)
		for i := range out {
			out[i] = i
		}
		return out
	}
	return []int{0, 1, count / 2, count - 2, count - 1}
}
