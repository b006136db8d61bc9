package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pmpr/internal/events"
	"pmpr/internal/gen"
	"pmpr/internal/tcsr"
)

// runIndexCase is one event log and window spec the run index is
// checked on.
type runIndexCase struct {
	name string
	log  *events.Log
	spec events.WindowSpec
}

// runIndexCases draws logs from internal/gen plus hand-built edge
// cases: empty windows, a single vertex, self-loops, many events on one
// timestamp, and windows past the end of the data.
func runIndexCases(t *testing.T) []runIndexCase {
	t.Helper()
	var cases []runIndexCase
	for i, name := range gen.Names() {
		ds, _ := gen.Get(name)
		scale := 2000 / float64(ds.BaseEvents)
		l, err := ds.Generate(scale, int64(i+1))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lo, hi, _ := l.TimeRange()
		spec, err := events.Span(l, (hi-lo)/8+1, (hi-lo)/40+1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cases = append(cases, runIndexCase{name: "gen/" + name, log: l, spec: spec})
	}
	mk := func(name string, n int32, evs []events.Event, spec events.WindowSpec) {
		l, err := events.NewLog(evs, n)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cases = append(cases, runIndexCase{name: name, log: l, spec: spec})
	}
	// Two bursts with a gap that several windows fall into entirely.
	var gap []events.Event
	for i := int64(0); i < 40; i++ {
		gap = append(gap, ev(int32(i%5), int32((i*3+1)%7), i*2))
	}
	for i := int64(0); i < 40; i++ {
		gap = append(gap, ev(int32((i*5)%7), int32(i%3), 1000+i*2))
	}
	mk("empty-windows", 7, gap, events.WindowSpec{T0: 0, Delta: 60, Slide: 50, Count: 23})
	mk("single-vertex", 1, []events.Event{ev(0, 0, 5), ev(0, 0, 5), ev(0, 0, 17), ev(0, 0, 40)},
		events.WindowSpec{T0: 0, Delta: 10, Slide: 5, Count: 9})
	rng := rand.New(rand.NewSource(3))
	var loops []events.Event
	for i := int64(0); i < 300; i++ {
		u := int32(rng.Intn(12))
		v := u
		if rng.Intn(3) == 0 {
			v = int32(rng.Intn(12))
		}
		loops = append(loops, ev(u, v, i*3))
	}
	// Slide > Delta: gaps between windows that hold events of their own.
	mk("slide-gaps", 7, gap, events.WindowSpec{T0: 0, Delta: 20, Slide: 45, Count: 25})
	mk("self-loops", 12, loops, events.WindowSpec{T0: 0, Delta: 90, Slide: 30, Count: 28})
	var burst []events.Event
	for i := 0; i < 400; i++ {
		burst = append(burst, ev(int32(rng.Intn(9)), int32(rng.Intn(9)), 500))
	}
	mk("one-timestamp", 9, burst, events.WindowSpec{T0: 400, Delta: 100, Slide: 25, Count: 12})
	tail := randomLog(t, 5, 20, 500, 2000)
	_, last, _ := tail.TimeRange()
	mk("past-the-end", 20, tail.Events(), events.WindowSpec{T0: 0, Delta: 300, Slide: 150, Count: int(last/150) + 9})
	return cases
}

// TestRunIndexMatchesRunActive steps a chain's index through every
// window of every unit and checks it against tcsr.RunActive on the
// original runs after each step: for every vertex, the index lists
// exactly the in-runs live in the window, in order, with their
// neighbours; the inverse out-degrees and the ascending active list
// match a walk of the stored runs; and seek reports the runs it
// inserted or removed (every live run for a rebuild, the symmetric
// difference with the previous window for a delta). Each multi-window
// graph is stepped as one unit and as chains of three windows, and
// every unit is rebuilt once mid-chain, from an index left half-changed
// as by a panic during a seek, then carries on with deltas from the
// rebuilt index. The index's buffers go back to the arena with the
// workspace.
func TestRunIndexMatchesRunActive(t *testing.T) {
	arena := &scratchArena{}
	ws := arena.take()
	var kept, dropped, deltas, rebuilds int
	for _, c := range runIndexCases(t) {
		for _, directed := range []bool{false, true} {
			l := c.log
			if !directed {
				l = l.Symmetrize()
			}
			tg, err := tcsr.Build(l, c.spec, 3, directed)
			if err != nil {
				t.Fatalf("%s: Build: %v", c.name, err)
			}
			for mi, mw := range tg.MWs {
				for _, chain := range []int{mw.NumWindows(), 3} {
					for lo := mw.WinLo; lo < mw.WinHi; lo += chain {
						hi := min(lo+chain, mw.WinHi)
						var ix chainIndex
						ix.open(mw, lo, hi, ws)
						if want := storedRunCount(mw, directed); ix.walked != want {
							t.Fatalf("%s directed=%v mw=%d: unit walked %d runs, want %d", c.name, directed, mi, ix.walked, want)
						}
						var prev map[liveRun]bool
						for w := lo; w < hi; w++ {
							label := fmt.Sprintf("%s directed=%v mw=%d unit=[%d,%d) window=%d", c.name, directed, mi, lo, hi, w)
							live := liveRuns(mw, w)
							want := int64(len(live)) // a rebuild inserts every live run
							if prev != nil {
								want = symmetricDifference(prev, live)
								deltas++
							} else {
								rebuilds++
							}
							if got := ix.seek(w); got != want {
								t.Fatalf("%s: seek applied %d runs, want %d", label, got, want)
							}
							k, d := checkChainIndex(t, label, mw, w, &ix)
							kept, dropped = kept+k, dropped+d
							if w == (lo+hi)/2 {
								// Leave the index as a seek that panicked
								// midway would: a run removed, its flip
								// not merged into the list.
								k := int32(w - lo)
								for i := range ix.ivLo {
									if ix.ivLo[i] <= k && k <= ix.ivHi[i] {
										ix.remove(int32(i))
										break
									}
								}
								ix.invalidate()
								if got := ix.seek(w); got != int64(len(live)) {
									t.Fatalf("%s: forced rebuild applied %d runs, want %d", label, got, len(live))
								}
								checkChainIndex(t, label+" rebuilt", mw, w, &ix)
								rebuilds++
							}
							prev = live
						}
					}
				}
			}
		}
	}
	if kept == 0 || dropped == 0 || deltas == 0 || rebuilds == 0 {
		t.Fatalf("cases kept %d runs, dropped %d, stepped %d deltas and %d rebuilds; every path needs exercising",
			kept, dropped, deltas, rebuilds)
	}
	arena.give(ws)
	if st := arena.stats(); st.Outstanding() != 0 {
		t.Fatalf("index buffers not returned: %+v", st)
	}
}

// liveRun names a stored run by its side and its first position in
// that side's CSR.
type liveRun struct {
	out bool
	at  int64
}

// liveRuns returns the runs of mw live in window w by tcsr.RunActive:
// the in-runs, plus a directed graph's out-runs.
func liveRuns(mw *tcsr.MultiWindow, w int) map[liveRun]bool {
	ts, te := mw.Window(w)
	live := make(map[liveRun]bool)
	side := func(out bool, row []int64, col []int32, tim []int64) {
		for v := 0; v+1 < len(row); v++ {
			i, end := row[v], row[v+1]
			for i < end {
				j := i + 1
				for j < end && col[j] == col[i] {
					j++
				}
				if tcsr.RunActive(tim[i:j], ts, te) {
					live[liveRun{out, i}] = true
				}
				i = j
			}
		}
	}
	side(false, mw.InRow, mw.InCol, mw.InTime)
	if !mw.OutColAliased() {
		side(true, mw.OutRow, mw.OutCol, mw.OutTime)
	}
	return live
}

// symmetricDifference counts the runs live in exactly one of a and b.
func symmetricDifference(a, b map[liveRun]bool) int64 {
	var n int64
	for r := range a {
		if !b[r] {
			n++
		}
	}
	for r := range b {
		if !a[r] {
			n++
		}
	}
	return n
}

// storedRunCount counts mw's stored in-runs, plus its out-runs when
// directed.
func storedRunCount(mw *tcsr.MultiWindow, directed bool) int64 {
	n := storedRuns(mw.InRow, mw.InCol)
	if directed {
		n += storedRuns(mw.OutRow, mw.OutCol)
	}
	return n
}

// checkChainIndex fails t unless ix describes window w of mw: its run
// index lists the in-runs live by tcsr.RunActive, in order, and counts
// them; its inverse out-degrees count the live out-runs; and its list
// holds, ascending, the vertices with a live in-run or out-run. It
// returns how many in-runs the index kept and dropped.
func checkChainIndex(t *testing.T, label string, mw *tcsr.MultiWindow, w int, ix *chainIndex) (kept, dropped int) {
	t.Helper()
	ts, te := mw.Window(w)
	n := int(mw.NumLocal())
	if len(ix.row) != n+1 || ix.row[0] != 0 || len(ix.end) != n {
		t.Fatalf("%s: row has length %d and starts at %d, end has length %d, want %d, 0 and %d",
			label, len(ix.row), ix.row[0], len(ix.end), n+1, n)
	}
	outDeg := make([]int, n)
	for u := 0; u < n; u++ {
		i, end := mw.OutRow[u], mw.OutRow[u+1]
		for i < end {
			j := i + 1
			for j < end && mw.OutCol[j] == mw.OutCol[i] {
				j++
			}
			if tcsr.RunActive(mw.OutTime[i:j], ts, te) {
				outDeg[u]++
			}
			i = j
		}
	}
	var list []int32
	for v := 0; v < n; v++ {
		r := ix.row[v]
		i, end := mw.InRow[v], mw.InRow[v+1]
		for i < end {
			j := i + 1
			for j < end && mw.InCol[j] == mw.InCol[i] {
				j++
			}
			if tcsr.RunActive(mw.InTime[i:j], ts, te) {
				if r >= ix.end[v] {
					t.Fatalf("%s: vertex %d: run from %d missing from the index", label, v, mw.InCol[i])
				}
				if ix.col[r] != mw.InCol[i] {
					t.Fatalf("%s: vertex %d entry %d = %d, want %d", label, v, r, ix.col[r], mw.InCol[i])
				}
				r++
			} else {
				dropped++
			}
			i = j
		}
		if r != ix.end[v] {
			t.Fatalf("%s: vertex %d has %d indexed runs, want %d", label, v, ix.end[v]-ix.row[v], r-ix.row[v])
		}
		kept += int(r - ix.row[v])
		var inv float64
		if outDeg[v] > 0 {
			inv = 1 / float64(outDeg[v])
		}
		if ix.invdeg[v] != inv {
			t.Fatalf("%s: vertex %d has inverse out-degree %v, want %v", label, v, ix.invdeg[v], inv)
		}
		if r > ix.row[v] || outDeg[v] > 0 {
			list = append(list, int32(v))
		}
	}
	if ix.kept != int64(kept) {
		t.Fatalf("%s: index counts %d kept runs, want %d", label, ix.kept, kept)
	}
	if !slices.Equal(ix.list, list) {
		t.Fatalf("%s: active list %v, want %v", label, ix.list, list)
	}
	return kept, dropped
}
