package invariant_test

import (
	"strings"
	"testing"

	"pmpr/internal/events"
	"pmpr/internal/invariant"
	"pmpr/internal/tcsr"
)

func testLog(t *testing.T) *events.Log {
	t.Helper()
	evs := []events.Event{
		{U: 0, V: 1, T: 0},
		{U: 1, V: 2, T: 3},
		{U: 2, V: 3, T: 5},
		{U: 0, V: 1, T: 7},
		{U: 3, V: 4, T: 9},
		{U: 4, V: 0, T: 12},
		{U: 1, V: 3, T: 15},
		{U: 2, V: 4, T: 18},
	}
	l, err := events.NewLog(evs, 5)
	if err != nil {
		t.Fatalf("NewLog: %v", err)
	}
	return l
}

func testTemporal(t *testing.T, directed bool) (*tcsr.Temporal, *events.Log) {
	t.Helper()
	l := testLog(t)
	if !directed {
		l = l.Symmetrize()
	}
	spec := events.WindowSpec{T0: 0, Delta: 6, Slide: 4, Count: 4}
	tg, err := tcsr.Build(l, spec, 2, directed)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return tg, l
}

func TestCheckTemporalClean(t *testing.T) {
	for _, directed := range []bool{true, false} {
		tg, l := testTemporal(t, directed)
		if err := invariant.CheckTemporal(tg); err != nil {
			t.Errorf("directed=%v CheckTemporal: %v", directed, err)
		}
		if err := invariant.CheckCoverage(tg, l); err != nil {
			t.Errorf("directed=%v CheckCoverage: %v", directed, err)
		}
	}
}

// TestCheckMultiWindowCorrupted is the acceptance-criterion test: a
// deliberately corrupted TCSR — swapped row-pointer entries — must be
// caught by the validators.
func TestCheckMultiWindowCorrupted(t *testing.T) {
	tg, _ := testTemporal(t, true)
	mw := tg.MWs[0]
	// Find a vertex with a non-empty row so the swap actually breaks
	// monotonicity, then swap adjacent row-pointer entries.
	var u int32 = -1
	for v := int32(0); v < mw.NumLocal(); v++ {
		if mw.InRow[v+1] > mw.InRow[v] {
			u = v
			break
		}
	}
	if u < 0 {
		t.Fatal("fixture has no non-empty in-row")
	}
	mw.InRow[u], mw.InRow[u+1] = mw.InRow[u+1], mw.InRow[u]
	err := invariant.CheckMultiWindow(mw, tg.Directed)
	if err == nil {
		t.Fatal("swapped row pointers not detected")
	}
	if !strings.Contains(err.Error(), "row pointers decrease") {
		t.Errorf("unexpected violation message: %v", err)
	}
	if err := invariant.CheckTemporal(tg); err == nil {
		t.Error("CheckTemporal should surface the corrupted multi-window")
	}
}

func TestCheckMultiWindowCorruptions(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(mw *tcsr.MultiWindow)
		want    string
	}{
		{
			name: "column out of range",
			corrupt: func(mw *tcsr.MultiWindow) {
				mw.OutCol[0] = mw.NumLocal()
			},
			want: "outside local range",
		},
		{
			name: "descending run timestamps",
			corrupt: func(mw *tcsr.MultiWindow) {
				// Make the first row's entries one descending run.
				for i := mw.OutRow[0]; i < mw.OutRow[1]; i++ {
					mw.OutCol[i] = 0
					mw.OutTime[i] = -i
				}
			},
			want: "descending timestamps",
		},
		{
			name: "unsorted neighbors",
			corrupt: func(mw *tcsr.MultiWindow) {
				lo := mw.OutRow[0]
				if mw.OutRow[1]-lo < 2 {
					mw.OutRow[1] = lo + 2
					mw.OutRow[mw.NumLocal()] = int64(len(mw.OutCol))
				}
				mw.OutCol[lo], mw.OutCol[lo+1] = 2, 1
			},
			want: "not sorted by neighbor",
		},
		{
			name: "broken relabel table",
			corrupt: func(mw *tcsr.MultiWindow) {
				ids := mw.GlobalIDs()
				ids[0], ids[1] = ids[1], ids[0]
			},
			want: "ascending",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tg, _ := testTemporal(t, true)
			mw := tg.MWs[0]
			if mw.OutRow[1]-mw.OutRow[0] == 0 || mw.NumLocal() < 3 {
				t.Fatal("fixture too small for corruption cases")
			}
			tc.corrupt(mw)
			err := invariant.CheckMultiWindow(mw, true)
			if err == nil {
				t.Fatalf("corruption %q not detected", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("violation %v does not mention %q", err, tc.want)
			}
		})
	}
}

func TestCheckCoverageDetectsMissingEvents(t *testing.T) {
	tg, l := testTemporal(t, true)
	// Retime a stored event so the (neighbor, time) entry no longer
	// matches the log.
	mw := tg.MWs[0]
	mw.OutTime[0] += 1000
	if err := invariant.CheckCoverage(tg, l); err == nil {
		t.Error("retimed stored event not detected")
	}
}

func TestCheckWindowSpec(t *testing.T) {
	specs := []events.WindowSpec{
		{T0: 0, Delta: 6, Slide: 4, Count: 4},
		{T0: -10, Delta: 3, Slide: 7, Count: 9}, // gaps: Slide > Delta
		{T0: 5, Delta: 0, Slide: 1, Count: 100}, // point windows, large count
	}
	for _, spec := range specs {
		if err := invariant.CheckWindowSpec(spec); err != nil {
			t.Errorf("%v: %v", spec, err)
		}
	}
	if err := invariant.CheckWindowSpec(events.WindowSpec{Delta: 1, Slide: 0, Count: 1}); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestCheckCoveringAt(t *testing.T) {
	spec := events.WindowSpec{T0: 0, Delta: 3, Slide: 7, Count: 5}
	// Sweep across covered timestamps, gap timestamps, and both
	// out-of-span sides.
	for t64 := int64(-5); t64 < spec.SpanEnd()+5; t64++ {
		if err := invariant.CheckCoveringAt(spec, t64); err != nil {
			t.Errorf("t=%d: %v", t64, err)
		}
	}
}

func TestCheckRanks(t *testing.T) {
	cases := []struct {
		name   string
		ranks  []float64
		active int32
		ok     bool
	}{
		{"uniform", []float64{0.25, 0.25, 0.25, 0.25}, 4, true},
		{"inactive zeros", []float64{0.5, 0, 0.5, 0}, 2, true},
		{"within tol", []float64{0.5 + 4e-9, 0.5}, 2, true},
		{"empty window", []float64{0, 0, 0}, 0, true},
		{"mass deficit", []float64{0.2, 0.2}, 2, false},
		{"negative entry", []float64{1.2, -0.2}, 2, false},
		{"wrong active count", []float64{1, 0, 0}, 3, false},
		{"empty window with mass", []float64{0.1, 0}, 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := invariant.CheckRanks(tc.ranks, tc.active, 0)
			if tc.ok && err != nil {
				t.Errorf("unexpected violation: %v", err)
			}
			if !tc.ok && err == nil {
				t.Error("violation not detected")
			}
		})
	}
	nan := []float64{0.5, 0.5}
	nan[0] /= 0 // +Inf, then non-finite check must fire
	if err := invariant.CheckRanks(nan, 2, 0); err == nil {
		t.Error("non-finite rank not detected")
	}
}

func TestViolationTruncation(t *testing.T) {
	// A thoroughly corrupt vector trips the per-check violation cap
	// instead of reporting thousands of lines.
	ranks := make([]float64, 100)
	for i := range ranks {
		ranks[i] = -1
	}
	err := invariant.CheckRanks(ranks, 100, 0)
	if err == nil {
		t.Fatal("corrupt vector not detected")
	}
	if n := strings.Count(err.Error(), "\n"); n > 12 {
		t.Errorf("violation report not truncated: %d lines", n)
	}
	if !strings.Contains(err.Error(), "truncated") {
		t.Error("truncation not announced")
	}
}

func TestCheckSymmetric(t *testing.T) {
	if err := invariant.CheckSymmetric(testLog(t).Symmetrize()); err != nil {
		t.Errorf("symmetrized log rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		evs  []events.Event
		ok   bool
	}{
		{"self-loop", []events.Event{{U: 2, V: 2, T: 1}}, true},
		{"pair at one time", []events.Event{{U: 0, V: 1, T: 4}, {U: 1, V: 0, T: 4}}, true},
		{"one direction", []events.Event{{U: 0, V: 1, T: 4}}, false},
		{"reverse at another time", []events.Event{{U: 0, V: 1, T: 4}, {U: 1, V: 0, T: 5}}, false},
		{"unbalanced duplicate", []events.Event{{U: 0, V: 1, T: 4}, {U: 0, V: 1, T: 4}, {U: 1, V: 0, T: 4}}, false},
	} {
		l, err := events.NewLog(tc.evs, 3)
		if err != nil {
			t.Fatalf("%s: NewLog: %v", tc.name, err)
		}
		if err := invariant.CheckSymmetric(l); (err == nil) != tc.ok {
			t.Errorf("%s: CheckSymmetric = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
	if err := invariant.CheckSymmetric(testLog(t)); err == nil {
		t.Error("directed log accepted as symmetric")
	}
}
