package tcsr

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"pmpr/internal/csr"
	"pmpr/internal/events"
)

func ev(u, v int32, t int64) events.Event { return events.Event{U: u, V: v, T: t} }

// paperExample builds the temporal edge list of the paper's Fig. 2a,
// with dates as day offsets from 6/1/2021. Vertices are 1..7.
func paperExample(t *testing.T) (*events.Log, events.WindowSpec) {
	t.Helper()
	raw := []events.Event{
		ev(1, 2, 20),  // 06/21
		ev(3, 5, 24),  // 06/25
		ev(4, 6, 40),  // 07/11
		ev(2, 3, 61),  // 08/01
		ev(2, 4, 71),  // 08/11
		ev(5, 6, 104), // 09/13
		ev(2, 7, 123), // 10/02
		ev(4, 7, 126), // 10/05
		ev(5, 7, 127), // 10/06
		ev(6, 7, 130), // 10/09
		ev(1, 2, 157), // 11/05
		ev(1, 3, 158), // 11/06
		ev(2, 5, 161), // 11/09
		ev(3, 5, 164), // 11/12
	}
	l, err := events.NewLog(raw, 8)
	if err != nil {
		t.Fatalf("NewLog: %v", err)
	}
	// Window size 3.5 months ~ 106 days, sliding offset 1 month ~ 30
	// days: windows [0,106], [30,136], [60?,166?] -- the paper's third
	// window starts 8/1 (day 61); the spec derives starts 0,30,60 which
	// keeps the same active sets.
	return l.Symmetrize(), events.WindowSpec{T0: 0, Delta: 106, Slide: 30, Count: 3}
}

// activeUndirectedEdges extracts the set of undirected active pairs in
// window w from a multi-window graph.
func activeUndirectedEdges(mw *MultiWindow, w int) map[[2]int32]bool {
	ts, te := mw.Window(w)
	out := make(map[[2]int32]bool)
	for u := int32(0); u < mw.NumLocal(); u++ {
		start, end := mw.OutRow[u], mw.OutRow[u+1]
		i := start
		for i < end {
			j := i + 1
			for j < end && mw.OutCol[j] == mw.OutCol[i] {
				j++
			}
			if RunActive(mw.OutTime[i:j], ts, te) {
				a, b := mw.GlobalID(u), mw.GlobalID(mw.OutCol[i])
				if a > b {
					a, b = b, a
				}
				out[[2]int32{a, b}] = true
			}
			i = j
		}
	}
	return out
}

func TestPaperExampleFig2(t *testing.T) {
	l, spec := paperExample(t)
	tg, err := Build(l, spec, 1, false)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	mw := tg.MWs[0]
	// Fig. 3: 14 undirected events stored as 28 temporal CSR entries.
	if mw.NumEvents() != 28 {
		t.Fatalf("stored events = %d, want 28", mw.NumEvents())
	}
	want := []map[[2]int32]bool{
		{ // T1: 6 edges
			{1, 2}: true, {3, 5}: true, {4, 6}: true, {2, 3}: true, {2, 4}: true, {5, 6}: true,
		},
		{ // T2: 8 edges
			{4, 6}: true, {2, 3}: true, {2, 4}: true, {5, 6}: true,
			{2, 7}: true, {4, 7}: true, {5, 7}: true, {6, 7}: true,
		},
		{ // T3: 11 edges
			{2, 3}: true, {2, 4}: true, {5, 6}: true, {2, 7}: true, {4, 7}: true,
			{5, 7}: true, {6, 7}: true, {1, 2}: true, {1, 3}: true, {2, 5}: true, {3, 5}: true,
		},
	}
	for w := 0; w < 3; w++ {
		got := activeUndirectedEdges(mw, w)
		if len(got) != len(want[w]) {
			t.Fatalf("window %d: %d active edges, want %d (%v)", w, len(got), len(want[w]), got)
		}
		for e := range want[w] {
			if !got[e] {
				t.Fatalf("window %d: missing edge %v", w, e)
			}
		}
	}
}

func TestPaperExampleRunsSorted(t *testing.T) {
	l, spec := paperExample(t)
	tg, err := Build(l, spec, 1, false)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	mw := tg.MWs[0]
	for u := int32(0); u < mw.NumLocal(); u++ {
		lo, hi := mw.InRow[u], mw.InRow[u+1]
		for i := lo + 1; i < hi; i++ {
			if mw.InCol[i] < mw.InCol[i-1] {
				t.Fatalf("vertex %d: neighbors unsorted", u)
			}
			if mw.InCol[i] == mw.InCol[i-1] && mw.InTime[i] < mw.InTime[i-1] {
				t.Fatalf("vertex %d: times within run unsorted", u)
			}
		}
	}
}

func randomTemporalLog(rng *rand.Rand, n int32, m int, span int64) []events.Event {
	evs := make([]events.Event, m)
	tcur := int64(0)
	for i := range evs {
		tcur += rng.Int63n(span/int64(m) + 1)
		evs[i] = ev(int32(rng.Intn(int(n))), int32(rng.Intn(int(n))), tcur)
	}
	return evs
}

// windowEdgesViaCSR is the oracle: rebuild the window graph from the
// raw event slice and collect its directed edges in global ids.
func windowEdgesViaCSR(t *testing.T, l *events.Log, ts, te int64) map[[2]int32]bool {
	t.Helper()
	g, err := csr.FromLogWindow(l, ts, te)
	if err != nil {
		t.Fatalf("FromLogWindow: %v", err)
	}
	out := make(map[[2]int32]bool)
	for u := int32(0); u < g.NumVertices(); u++ {
		for _, v := range g.OutNeighbors(u) {
			out[[2]int32{u, v}] = true
		}
	}
	return out
}

func directedActiveEdges(mw *MultiWindow, w int) map[[2]int32]bool {
	ts, te := mw.Window(w)
	out := make(map[[2]int32]bool)
	for u := int32(0); u < mw.NumLocal(); u++ {
		start, end := mw.OutRow[u], mw.OutRow[u+1]
		i := start
		for i < end {
			j := i + 1
			for j < end && mw.OutCol[j] == mw.OutCol[i] {
				j++
			}
			if RunActive(mw.OutTime[i:j], ts, te) {
				out[[2]int32{mw.GlobalID(u), mw.GlobalID(mw.OutCol[i])}] = true
			}
			i = j
		}
	}
	return out
}

func TestWindowGraphsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 25; trial++ {
		n := int32(rng.Intn(30) + 2)
		evs := randomTemporalLog(rng, n, rng.Intn(400)+10, 2000)
		l, err := events.NewLog(evs, n)
		if err != nil {
			t.Fatalf("NewLog: %v", err)
		}
		delta := int64(rng.Intn(300) + 1)
		slide := int64(rng.Intn(150) + 1)
		spec, err := events.Span(l, delta, slide)
		if err != nil {
			t.Fatalf("Span: %v", err)
		}
		for _, numMW := range []int{1, 2, 5, spec.Count} {
			tg, err := Build(l, spec, numMW, true)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			for w := 0; w < spec.Count; w++ {
				mw := tg.ForWindow(w)
				if w < mw.WinLo || w >= mw.WinHi {
					t.Fatalf("ForWindow(%d) returned MW [%d,%d)", w, mw.WinLo, mw.WinHi)
				}
				got := directedActiveEdges(mw, w)
				want := windowEdgesViaCSR(t, l, spec.Start(w), spec.End(w))
				if len(got) != len(want) {
					t.Fatalf("trial %d numMW %d window %d: %d edges, oracle %d",
						trial, numMW, w, len(got), len(want))
				}
				for e := range want {
					if !got[e] {
						t.Fatalf("trial %d window %d: missing edge %v", trial, w, e)
					}
				}
			}
		}
	}
}

func TestReplicationAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	n := int32(20)
	evs := randomTemporalLog(rng, n, 300, 1000)
	l, _ := events.NewLog(evs, n)
	spec, err := events.Span(l, 100, 20) // overlapping windows cover all events
	if err != nil {
		t.Fatalf("Span: %v", err)
	}
	one, err := Build(l, spec, 1, true)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if one.TotalStoredEvents() != int64(l.Len()) {
		t.Fatalf("single MW stores %d events, want %d", one.TotalStoredEvents(), l.Len())
	}
	many, err := Build(l, spec, 8, true)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if many.TotalStoredEvents() < int64(l.Len()) {
		t.Fatalf("partitioned representation stores %d < |Events| %d",
			many.TotalStoredEvents(), l.Len())
	}
	if many.MemoryBytes() <= 0 {
		t.Fatal("MemoryBytes should be positive")
	}
}

func TestGapFilteringWhenSlideExceedsDelta(t *testing.T) {
	// slide=100, delta=10: events in (T0+10, T0+100) fall in no window.
	evs := []events.Event{
		ev(0, 1, 0),   // window 0
		ev(1, 2, 50),  // gap: no window
		ev(2, 3, 100), // window 1
	}
	l, _ := events.NewLog(evs, 4)
	spec := events.WindowSpec{T0: 0, Delta: 10, Slide: 100, Count: 2}
	tg, err := Build(l, spec, 1, true)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if got := tg.MWs[0].NumEvents(); got != 2 {
		t.Fatalf("stored %d events, want 2 (gap event dropped)", got)
	}
	if tg.MWs[0].LocalID(1) == -1 || tg.MWs[0].LocalID(2) == -1 {
		t.Fatal("window-active vertices missing")
	}
}

func TestLocalIDMapping(t *testing.T) {
	evs := []events.Event{ev(5, 9, 10), ev(9, 2, 20)}
	l, _ := events.NewLog(evs, 12)
	spec := events.WindowSpec{T0: 10, Delta: 10, Slide: 5, Count: 3}
	tg, err := Build(l, spec, 1, true)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	mw := tg.MWs[0]
	if mw.NumLocal() != 3 {
		t.Fatalf("NumLocal = %d, want 3", mw.NumLocal())
	}
	ids := mw.GlobalIDs()
	if !sort.SliceIsSorted(ids, func(i, j int) bool { return ids[i] < ids[j] }) {
		t.Fatalf("global ids unsorted: %v", ids)
	}
	for local, g := range ids {
		if mw.LocalID(g) != int32(local) {
			t.Fatalf("LocalID(GlobalID(%d)) = %d", local, mw.LocalID(g))
		}
	}
	if mw.LocalID(0) != -1 {
		t.Fatal("absent vertex should map to -1")
	}
}

func TestDirectedBuildsDistinctInView(t *testing.T) {
	evs := []events.Event{ev(0, 1, 5)}
	l, _ := events.NewLog(evs, 2)
	spec := events.WindowSpec{T0: 5, Delta: 1, Slide: 1, Count: 1}
	dg, err := Build(l, spec, 1, true)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	mw := dg.MWs[0]
	if mw.OutColAliased() {
		t.Fatal("directed build should not alias in/out views")
	}
	// Vertex 0 (local 0) has out-edge, no in-edge.
	if mw.OutRow[1]-mw.OutRow[0] != 1 || mw.InRow[1]-mw.InRow[0] != 0 {
		t.Fatal("directed adjacency wrong for source vertex")
	}
	ug, err := Build(l.Symmetrize(), spec, 1, false)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if !ug.MWs[0].OutColAliased() {
		t.Fatal("undirected build should alias in/out views")
	}
	// The log's Symmetric mark carries onto the build.
	if dg.Symmetric || !ug.Symmetric {
		t.Fatalf("Symmetric: %v from a NewLog log, %v from a symmetrized one", dg.Symmetric, ug.Symmetric)
	}
}

func TestBuildValidation(t *testing.T) {
	l, _ := events.NewLog([]events.Event{ev(0, 1, 5)}, 2)
	spec := events.WindowSpec{T0: 0, Delta: 10, Slide: 5, Count: 4}
	if _, err := Build(l, spec, 0, true); err == nil {
		t.Fatal("numMW=0 accepted")
	}
	if _, err := Build(l, events.WindowSpec{T0: 0, Delta: -1, Slide: 5, Count: 4}, 1, true); err == nil {
		t.Fatal("invalid spec accepted")
	}
	// numMW > Count is clamped, not an error.
	tg, err := Build(l, spec, 100, true)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if len(tg.MWs) != spec.Count {
		t.Fatalf("got %d MWs, want clamp to %d", len(tg.MWs), spec.Count)
	}
}

func TestPartitionCoversAllWindowsOnce(t *testing.T) {
	f := func(countRaw, numMWRaw uint8) bool {
		count := int(countRaw%60) + 1
		numMW := int(numMWRaw%20) + 1
		l, err := events.NewLog([]events.Event{ev(0, 1, 0)}, 2)
		if err != nil {
			return false
		}
		spec := events.WindowSpec{T0: 0, Delta: 5, Slide: 3, Count: count}
		tg, err := Build(l, spec, numMW, true)
		if err != nil {
			return false
		}
		prevHi := 0
		for _, mw := range tg.MWs {
			if mw.WinLo != prevHi || mw.WinHi <= mw.WinLo {
				return false
			}
			prevHi = mw.WinHi
		}
		if prevHi != count {
			return false
		}
		// Uniform distribution: sizes differ by at most 1.
		lo, hi := count, 0
		for _, mw := range tg.MWs {
			if s := mw.NumWindows(); s < lo {
				lo = s
			}
			if s := mw.NumWindows(); s > hi {
				hi = s
			}
		}
		return hi-lo <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRunActive(t *testing.T) {
	cases := []struct {
		times  []int64
		ts, te int64
		want   bool
	}{
		{[]int64{5}, 5, 5, true},
		{[]int64{5}, 6, 10, false},
		{[]int64{5}, 1, 4, false},
		{[]int64{1, 9, 20}, 8, 10, true},
		{[]int64{1, 9, 20}, 10, 19, false},
		{[]int64{}, 0, 100, false},
		{[]int64{1, 2, 3}, 3, 3, true},
	}
	for _, c := range cases {
		if got := RunActive(c.times, c.ts, c.te); got != c.want {
			t.Errorf("RunActive(%v, %d, %d) = %v, want %v", c.times, c.ts, c.te, got, c.want)
		}
	}
}

// TestRunActiveMatchesWindowSpec pins RunActive's closed window
// [Ts, Te] to the window semantics everything else uses: on every
// window of every spec, a run is live exactly when one of its
// timestamps lies in the window by WindowSpec.Contains and, equally,
// when Covering places the timestamp in a window range holding it; and
// the edges live in a window of the built representation are exactly
// csr.FromLogWindow's edges over [Start, End]. The specs cover
// overlapping windows, gaps (Slide > Delta), instantaneous windows and
// windows past the data; the events sit on window starts and ends, one
// tick outside them, before T0 and at random times.
func TestRunActiveMatchesWindowSpec(t *testing.T) {
	specs := []events.WindowSpec{
		{T0: 100, Delta: 30, Slide: 10, Count: 12}, // overlapping
		{T0: 100, Delta: 10, Slide: 25, Count: 10}, // gaps between windows
		{T0: 100, Delta: 0, Slide: 7, Count: 15},   // instantaneous windows
		{T0: 100, Delta: 20, Slide: 20, Count: 30}, // tiling; the last third is past the data
	}
	rng := rand.New(rand.NewSource(17))
	const n = 6
	for si, spec := range specs {
		// The data stops about two thirds of the way through the windows.
		dataWindows := 2 * spec.Count / 3
		var probes []int64
		for w := 0; w < dataWindows; w++ {
			ts, te := spec.Interval(w)
			probes = append(probes, ts-1, ts, te, te+1)
		}
		probes = append(probes, spec.T0-5, spec.T0-1)
		for i := 0; i < 40; i++ {
			probes = append(probes, spec.T0-10+rng.Int63n(spec.End(dataWindows-1)-spec.T0+10))
		}

		// RunActive against Contains and Covering on ascending slices of
		// the probe times, including empty ones.
		sort.Slice(probes, func(i, j int) bool { return probes[i] < probes[j] })
		var boundary int
		for trial := 0; trial < 200; trial++ {
			var times []int64
			for _, p := range probes {
				if rng.Intn(len(probes)) < 3 {
					times = append(times, p)
				}
			}
			for w := 0; w < spec.Count; w++ {
				ts, te := spec.Interval(w)
				contains, covered := false, false
				for _, tm := range times {
					contains = contains || spec.Contains(w, tm)
					lo, hi, ok := spec.Covering(tm)
					covered = covered || (ok && lo <= w && w <= hi)
				}
				got := RunActive(times, ts, te)
				if got != contains || got != covered {
					t.Fatalf("spec %d %+v window %d times %v: RunActive %v, Contains %v, Covering %v",
						si, spec, w, times, got, contains, covered)
				}
				if got && (times[0] == ts || times[len(times)-1] == te) {
					boundary++
				}
			}
		}
		if boundary == 0 {
			t.Fatalf("spec %d: no live run touched a window boundary", si)
		}

		// The built representation against the oracle's window graph.
		var evs []events.Event
		for _, p := range probes {
			evs = append(evs, ev(int32(rng.Intn(n)), int32(rng.Intn(n)), p))
		}
		l := sortedLog(t, evs, n)
		tg, err := Build(l, spec, 3, true)
		if err != nil {
			t.Fatalf("spec %d: Build: %v", si, err)
		}
		past := 0
		for w := 0; w < spec.Count; w++ {
			mw := tg.ForWindow(w)
			ts, te := mw.Window(w)
			got := map[[2]int32]bool{}
			for u := int32(0); u < mw.NumLocal(); u++ {
				i, end := mw.OutRow[u], mw.OutRow[u+1]
				for i < end {
					j := i + 1
					for j < end && mw.OutCol[j] == mw.OutCol[i] {
						j++
					}
					if RunActive(mw.OutTime[i:j], ts, te) {
						got[[2]int32{mw.GlobalID(u), mw.GlobalID(mw.OutCol[i])}] = true
					}
					i = j
				}
			}
			g, err := csr.FromLogWindow(l, spec.Start(w), spec.End(w))
			if err != nil {
				t.Fatalf("spec %d window %d: FromLogWindow: %v", si, w, err)
			}
			want := map[[2]int32]bool{}
			for u := int32(0); u < g.NumVertices(); u++ {
				for _, v := range g.OutNeighbors(u) {
					want[[2]int32{u, v}] = true
				}
			}
			if len(got) != len(want) {
				t.Fatalf("spec %d window %d: %d live edges, FromLogWindow has %d", si, w, len(got), len(want))
			}
			for e := range want {
				if !got[e] {
					t.Fatalf("spec %d window %d: FromLogWindow edge %v is not live", si, w, e)
				}
			}
			if spec.Start(w) > probes[len(probes)-1] {
				past++
				if len(got) != 0 {
					t.Fatalf("spec %d window %d past the data has %d live edges", si, w, len(got))
				}
			}
		}
		if past == 0 {
			t.Fatalf("spec %d: no window lies past the data", si)
		}
	}
}

// sortedLog builds a log from evs after sorting them by time.
func sortedLog(t *testing.T, evs []events.Event, n int32) *events.Log {
	t.Helper()
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].T < evs[j].T })
	l, err := events.NewLog(evs, n)
	if err != nil {
		t.Fatalf("NewLog: %v", err)
	}
	return l
}
