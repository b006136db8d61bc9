package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"pmpr/internal/events"
	"pmpr/internal/gen"
	"pmpr/internal/sched"
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

// TestRunIndexMatchesRunActive checks buildRunIndex against
// tcsr.RunActive on the original runs: for every vertex, the index
// lists exactly the in-runs live in the window, in order, with their
// neighbors. Every window of every multi-window graph is indexed, and
// each index reuses the buffers the previous one returned. A pooled
// build must agree with the serial one.
func TestRunIndexMatchesRunActive(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	arena := newScratchArena(0)
	sb, release := arena.acquire(-1)
	defer release()
	var kept, dropped int
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
				for w := mw.WinLo; w < mw.WinHi; w++ {
					view := mw.ViewOf(w)
					label := fmt.Sprintf("%s directed=%v mw=%d window=%d", c.name, directed, mi, w)
					ix := buildRunIndex(mw, view, serialLoop, sb)
					k, d := checkRunIndex(t, label, mw, view, ix)
					kept, dropped = kept+k, dropped+d
					var par runIndex
					if err := pool.RunCtx(context.Background(), func(wk *sched.Worker) {
						par = buildRunIndex(mw, view, workerLoop(context.Background(), wk, 1, sched.Auto), sb)
					}); err != nil {
						t.Fatal(err)
					}
					checkRunIndex(t, label+" pooled", mw, view, par)
					par.release(sb)
					ix.release(sb)
				}
			}
		}
	}
	if kept == 0 || dropped == 0 {
		t.Fatalf("cases kept %d runs and dropped %d; both paths need exercising", kept, dropped)
	}
	if st := arena.stats(); st.Outstanding() != 0 {
		t.Fatalf("index buffers not returned: %+v", st)
	}
}

// checkRunIndex fails t unless ix indexes mw's in-runs against view
// and counts the runs it kept and walked, and returns how many runs it
// kept and dropped.
func checkRunIndex(t *testing.T, label string, mw *tcsr.MultiWindow, view tcsr.SolveView, ix runIndex) (kept, dropped int) {
	t.Helper()
	n := int(mw.NumLocal())
	if len(ix.row) != n+1 || ix.row[0] != 0 || len(ix.end) != n {
		t.Fatalf("%s: row has length %d and starts at %d, end has length %d, want %d, 0 and %d",
			label, len(ix.row), ix.row[0], len(ix.end), n+1, n)
	}
	for v := 0; v < n; v++ {
		r := ix.row[v]
		i, end := mw.InRow[v], mw.InRow[v+1]
		for i < end {
			j := i + 1
			for j < end && mw.InCol[j] == mw.InCol[i] {
				j++
			}
			if tcsr.RunActive(mw.InTime[i:j], view.Ts, view.Te) {
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
	}
	if ix.kept != int64(kept) || ix.visited != int64(kept+dropped) {
		t.Fatalf("%s: index counts %d kept and %d visited runs, want %d and %d", label, ix.kept, ix.visited, kept, kept+dropped)
	}
	return kept, dropped
}
