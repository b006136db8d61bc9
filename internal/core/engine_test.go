package core

import (
	"context"

	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"pmpr/internal/csr"
	"pmpr/internal/events"
	"pmpr/internal/pagerank"
	"pmpr/internal/results"
	"pmpr/internal/sched"
)

func ev(u, v int32, t int64) events.Event { return events.Event{U: u, V: v, T: t} }

func randomLog(t *testing.T, seed int64, n int32, m int, span int64) *events.Log {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	evs := make([]events.Event, m)
	tcur := int64(0)
	for i := range evs {
		tcur += rng.Int63n(span/int64(m) + 1)
		evs[i] = ev(int32(rng.Intn(int(n))), int32(rng.Intn(int(n))), tcur)
	}
	l, err := events.NewLog(evs, n)
	if err != nil {
		t.Fatalf("NewLog: %v", err)
	}
	return l
}

// checkAgainstOracle verifies every window of a series against the
// independent dense reference on the rebuilt window graph.
func checkAgainstOracle(t *testing.T, l *events.Log, spec events.WindowSpec, s *Series, label string) {
	t.Helper()
	for w := 0; w < spec.Count; w++ {
		g, err := csr.FromLogWindow(l, spec.Start(w), spec.End(w))
		if err != nil {
			t.Fatalf("%s: oracle graph window %d: %v", label, w, err)
		}
		want, err := pagerank.Reference(g, pagerank.Defaults())
		if err != nil {
			t.Fatalf("%s: oracle window %d: %v", label, w, err)
		}
		res := s.Window(w)
		if res.ActiveVertices != g.ActiveCount() {
			t.Fatalf("%s: window %d: active = %d, oracle %d", label, w, res.ActiveVertices, g.ActiveCount())
		}
		got := res.Dense(l.NumVertices())
		for v := range want {
			if math.Abs(got[v]-want[v]) > 1e-5 {
				t.Fatalf("%s: window %d vertex %d: got %v, oracle %v", label, w, v, got[v], want[v])
			}
		}
	}
}

func TestAllConfigurationsMatchOracle(t *testing.T) {
	pool := sched.NewPool(4)
	defer pool.Close()
	l := randomLog(t, 31, 25, 600, 3000)
	spec, err := events.Span(l, 400, 120)
	if err != nil {
		t.Fatalf("Span: %v", err)
	}
	if spec.Count < 8 {
		t.Fatalf("want a reasonable window count, got %d", spec.Count)
	}
	for _, mode := range []ParallelMode{AppLevel, WindowLevel, Nested} {
		for _, part := range []sched.Partitioner{sched.Auto, sched.Simple, sched.Static} {
			for _, partial := range []bool{false, true} {
				for _, numMW := range []int{1, 3} {
					cfg := DefaultConfig()
					cfg.Mode = mode
					cfg.Partitioner = part
					cfg.PartialInit = partial
					cfg.NumMultiWindows = numMW
					cfg.Directed = true
					eng, err := NewEngine(l, spec, cfg, pool)
					if err != nil {
						t.Fatalf("NewEngine: %v", err)
					}
					s, err := eng.Run(context.Background())
					if err != nil {
						t.Fatalf("Run: %v", err)
					}
					label := mode.String() + "/" + part.String()
					checkAgainstOracle(t, l, spec, s, label)
				}
			}
		}
	}
}

func TestSerialNilPoolMatchesOracle(t *testing.T) {
	l := randomLog(t, 32, 20, 300, 2000)
	spec, _ := events.Span(l, 300, 100)
	cfg := DefaultConfig()
	cfg.Directed = true
	cfg.NumMultiWindows = 2
	eng, err := NewEngine(l, spec, cfg, nil)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	s, err := eng.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	checkAgainstOracle(t, l, spec, s, "serial")
}

func TestUndirectedSymmetrizedMatchesOracle(t *testing.T) {
	l := randomLog(t, 33, 18, 250, 1500).Symmetrize()
	spec, _ := events.Span(l, 250, 90)
	cfg := DefaultConfig()
	cfg.Directed = false
	cfg.NumMultiWindows = 2
	eng, err := NewEngine(l, spec, cfg, nil)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	s, err := eng.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	checkAgainstOracle(t, l, spec, s, "undirected")
}

// TestErrorBoundHoldsAgainstOracle checks every window's ErrorBound
// against the dense oracle solved far past the default tolerance: the
// L1 distance of the window's ranks from the exact vector must not
// exceed (1−α)/α · FinalResidual. The table crosses the three updates
// (the serial plan's Gauss–Seidel pass, the 2-worker app-level plan's
// forked Jacobi, and the serial plan's conjugate gradient on the
// symmetrized log solved undirected), cold and partial starts, and a
// MaxIter of 100 or 5. At 5 most windows stop short of the tolerance,
// which is where a bound taken from the tolerance would be false. The
// runs validate every window with CheckRanks, so a truncated window
// must also leave Finalize with unit mass.
func TestErrorBoundHoldsAgainstOracle(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	exact := pagerank.Defaults()
	exact.Tol, exact.MaxIter = 1e-14, 2000
	paths := []struct {
		name     string
		pool     *sched.Pool
		directed bool
		update   string
	}{
		{"serial", nil, true, UpdateGaussSeidel},
		{"app-2", pool, true, UpdateJacobi},
		{"cg", nil, false, UpdateCG},
	}
	for _, seed := range []int64{41, 42, 43} {
		raw := randomLog(t, seed, 25, 500, 2500)
		spec, err := events.Span(raw, 400, 150)
		if err != nil {
			t.Fatalf("Span: %v", err)
		}
		for _, p := range paths {
			l := raw
			if !p.directed {
				l = raw.Symmetrize()
			}
			want := make([][]float64, spec.Count)
			for w := range want {
				g, err := csr.FromLogWindow(l, spec.Start(w), spec.End(w))
				if err != nil {
					t.Fatalf("oracle graph window %d: %v", w, err)
				}
				if want[w], err = pagerank.Reference(g, exact); err != nil {
					t.Fatalf("oracle window %d: %v", w, err)
				}
			}
			for _, partial := range []bool{false, true} {
				for _, maxIter := range []int{100, 5} {
					label := fmt.Sprintf("seed %d %s partial=%v maxiter=%d", seed, p.name, partial, maxIter)
					cfg := DefaultConfig()
					cfg.Mode = AppLevel
					cfg.PartialInit = partial
					cfg.Directed = p.directed
					cfg.NumMultiWindows = 2
					cfg.Opts.MaxIter = maxIter
					cfg.Validate = true // CheckRanks: unit mass, truncated windows included
					eng, err := NewEngine(l, spec, cfg, p.pool)
					if err != nil {
						t.Fatalf("%s: NewEngine: %v", label, err)
					}
					s, err := eng.Run(context.Background())
					if err != nil {
						t.Fatalf("%s: Run: %v", label, err)
					}
					if s.Report.Update != p.update {
						t.Fatalf("%s: update %q, want %q", label, s.Report.Update, p.update)
					}
					truncated := 0
					for w := range want {
						res := s.Window(w)
						if !res.Converged {
							truncated++
						}
						got := res.Dense(l.NumVertices())
						var dist float64
						for v := range got {
							dist += math.Abs(got[v] - want[w][v])
						}
						// 1e-12 absorbs the oracle's own error and rounding.
						if dist > res.ErrorBound+1e-12 {
							t.Fatalf("%s window %d: L1 distance %v to the oracle exceeds the bound %v (residual %v, %d iterations)",
								label, w, dist, res.ErrorBound, res.FinalResidual, res.Iterations)
						}
					}
					if maxIter == 5 && truncated == 0 {
						t.Fatalf("%s: no window stopped at MaxIter", label)
					}
				}
			}
		}
	}
}

func TestPartialInitReducesIterations(t *testing.T) {
	// Overlapping windows on a slowly-evolving graph: warm starts must
	// reduce total iterations (the effect Fig. 6 measures).
	l := randomLog(t, 34, 40, 3000, 5000)
	spec, _ := events.Span(l, 2000, 100)
	run := func(partial bool) *Series {
		cfg := DefaultConfig()
		cfg.Directed = true
		cfg.PartialInit = partial
		cfg.NumMultiWindows = 1
		eng, err := NewEngine(l, spec, cfg, nil)
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		s, err := eng.Run(context.Background())
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return s
	}
	full := run(false)
	partial := run(true)
	if partial.TotalIterations() >= full.TotalIterations() {
		t.Fatalf("partial init did not reduce iterations: %d vs %d",
			partial.TotalIterations(), full.TotalIterations())
	}
	// And the first window never warm-starts.
	if partial.Window(0).UsedPartialInit {
		t.Fatal("window 0 claims partial initialization")
	}
	used := 0
	for w := 1; w < partial.Len(); w++ {
		if partial.Window(w).UsedPartialInit {
			used++
		}
	}
	if used == 0 {
		t.Fatal("no window used partial initialization")
	}
}

func TestPartialInitNotAcrossMultiWindowBoundary(t *testing.T) {
	l := randomLog(t, 35, 20, 500, 2000)
	spec, _ := events.SpanCount(l, 500, 100, 12)
	cfg := DefaultConfig()
	cfg.Directed = true
	cfg.PartialInit = true
	cfg.NumMultiWindows = 4 // windows 0-2, 3-5, 6-8, 9-11
	eng, err := NewEngine(l, spec, cfg, nil)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	s, err := eng.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, first := range []int{0, 3, 6, 9} {
		if s.Window(first).UsedPartialInit {
			t.Fatalf("window %d is first of its multi-window graph but warm-started", first)
		}
	}
}

// sameWindows fails t unless a and b solved every window to the same
// bits: ranks, iterations, final residual and active count.
func sameWindows(t *testing.T, label string, numVertices int32, a, b *Series) {
	t.Helper()
	for w := 0; w < a.Len(); w++ {
		ra, rb := a.Window(w), b.Window(w)
		if ra.Iterations != rb.Iterations || math.Float64bits(ra.FinalResidual) != math.Float64bits(rb.FinalResidual) ||
			ra.ActiveVertices != rb.ActiveVertices {
			t.Fatalf("%s window %d: (%d it, residual %v, %d active) vs (%d it, residual %v, %d active)",
				label, w, ra.Iterations, ra.FinalResidual, ra.ActiveVertices, rb.Iterations, rb.FinalResidual, rb.ActiveVertices)
		}
		da, db := ra.Dense(numVertices), rb.Dense(numVertices)
		for v := range da {
			if math.Float64bits(da[v]) != math.Float64bits(db[v]) {
				t.Fatalf("%s window %d vertex %d: %v vs %v", label, w, v, da[v], db[v])
			}
		}
	}
}

// TestMaskDegreesEqualOutRunWalk pins the kernel's two degree paths to
// each other. Solved undirected, a symmetrized log's graph shares one
// CSR for both directions, and each vertex's out-degree is its
// run-index entry count; solved as directed, the same log gets its own
// out-CSR, whose runs the chain's index counts as they enter and
// leave. Brought to every window in turn, the two chain indexes must
// hold the same active list, bit-identical inverse degrees and the same
// live in-runs. The two plans run different updates (conjugate gradient
// undirected, Gauss–Seidel directed), so their ranks are compared with
// the dense oracle, serially, with partial init on and off.
func TestMaskDegreesEqualOutRunWalk(t *testing.T) {
	l := randomLog(t, 52, 30, 700, 4000).Symmetrize()
	spec, _ := events.Span(l, 600, 150)
	mk := func(directed bool, partial bool) *Engine {
		cfg := DefaultConfig()
		cfg.Directed = directed
		cfg.PartialInit = partial
		cfg.NumMultiWindows = 2
		eng, err := NewEngine(l, spec, cfg, nil)
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		for _, mw := range eng.Temporal().MWs {
			if mw.OutColAliased() == directed {
				t.Fatalf("directed=%v: multi-window %d..%d has OutColAliased %v", directed, mw.WinLo, mw.WinHi, !directed)
			}
		}
		return eng
	}
	counts, walk := mk(false, true), mk(true, true)
	arena := &scratchArena{}
	for i, mc := range counts.Temporal().MWs {
		mw := walk.Temporal().MWs[i]
		var ic, iw chainIndex
		ic.open(mc, mc.WinLo, mc.WinHi, arena.take())
		iw.open(mw, mw.WinLo, mw.WinHi, arena.take())
		if ic.outdeg != nil || iw.outdeg == nil {
			t.Fatalf("multi-window %d: the aliased index walks out-runs, or the directed one does not", i)
		}
		for w := mc.WinLo; w < mc.WinHi; w++ {
			ic.seek(w)
			iw.seek(w)
			if !slices.Equal(ic.list, iw.list) {
				t.Fatalf("window %d: active list %v from run counts, %v from the walk", w, ic.list, iw.list)
			}
			for v := range ic.invdeg {
				if math.Float64bits(ic.invdeg[v]) != math.Float64bits(iw.invdeg[v]) {
					t.Fatalf("window %d vertex %d: invdeg %v from run counts, %v from the walk", w, v, ic.invdeg[v], iw.invdeg[v])
				}
				rc := ic.col[ic.row[v]:ic.end[v]]
				if rw := iw.col[iw.row[v]:iw.end[v]]; !slices.Equal(rc, rw) {
					t.Fatalf("window %d vertex %d: live in-runs %v from run counts, %v from the walk", w, v, rc, rw)
				}
			}
		}
	}
	for _, partial := range []bool{false, true} {
		label := fmt.Sprintf("partial=%v", partial)
		for _, directed := range []bool{false, true} {
			s, err := mk(directed, partial).Run(context.Background())
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			checkAgainstOracle(t, l, spec, s, fmt.Sprintf("%s directed=%v %s", label, directed, s.Report.Update))
		}
	}
}

func TestDiscardRanks(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	l := randomLog(t, 37, 15, 200, 1000)
	spec, _ := events.Span(l, 200, 80)
	cfg := DefaultConfig()
	cfg.Directed = true
	cfg.DiscardRanks = true
	cfg.NumMultiWindows = 2
	eng, err := NewEngine(l, spec, cfg, pool)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	s, err := eng.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for w := 0; w < s.Len(); w++ {
		if s.Window(w).HasRanks() {
			t.Fatalf("window %d retained ranks despite DiscardRanks", w)
		}
	}
	// Iterations statistics must still be present.
	if s.TotalIterations() == 0 {
		t.Fatal("no iteration statistics")
	}
	if err := s.CheckExport(); err == nil {
		t.Error("CheckExport accepted a series whose ranks were discarded")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Rank on discarded result did not panic")
			}
		}()
		s.Window(0).Rank(0)
	}()
}

func TestEmptyWindowsHandled(t *testing.T) {
	// Events only at the start; later windows are empty.
	evs := []events.Event{ev(0, 1, 0), ev(1, 2, 5)}
	l, _ := events.NewLog(evs, 3)
	spec := events.WindowSpec{T0: 0, Delta: 10, Slide: 100, Count: 5}
	cfg := DefaultConfig()
	cfg.Directed = true
	cfg.NumMultiWindows = 2
	eng, err := NewEngine(l, spec, cfg, nil)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	s, err := eng.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !s.AllConverged() {
		t.Fatal("empty windows did not converge")
	}
	for w := 1; w < 5; w++ {
		if s.Window(w).ActiveVertices != 0 {
			t.Fatalf("window %d should be empty", w)
		}
	}
}

func TestSingleWindow(t *testing.T) {
	l := randomLog(t, 38, 10, 100, 50)
	spec := events.WindowSpec{T0: 0, Delta: 100, Slide: 1000, Count: 1}
	cfg := DefaultConfig()
	cfg.Directed = true
	eng, err := NewEngine(l, spec, cfg, nil)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	s, err := eng.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	checkAgainstOracle(t, l, spec, s, "single-window")
}

func TestConfigValidation(t *testing.T) {
	l := randomLog(t, 39, 5, 20, 100)
	spec, _ := events.Span(l, 50, 20)
	bad := []func(*Config){
		func(c *Config) { c.Opts.Alpha = 2 },
		func(c *Config) { c.NumMultiWindows = 0 },
		func(c *Config) { c.Mode = ParallelMode(9) },
		func(c *Config) { c.Grain = -1 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if _, err := NewEngine(l, spec, cfg, nil); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestNewEngineFromTemporalChecksDirection(t *testing.T) {
	l := randomLog(t, 40, 5, 20, 100)
	spec, _ := events.Span(l, 50, 20)
	cfg := DefaultConfig()
	cfg.Directed = true
	eng, err := NewEngine(l, spec, cfg, nil)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	cfg2 := cfg
	cfg2.Directed = false
	if _, err := NewEngineFromTemporal(eng.Temporal(), cfg2, nil); err == nil {
		t.Fatal("direction mismatch accepted")
	}
	if _, err := NewEngineFromTemporal(nil, cfg, nil); err == nil {
		t.Fatal("nil temporal accepted")
	}
	if _, err := NewEngineFromTemporal(eng.Temporal(), cfg, nil); err != nil {
		t.Fatalf("valid reuse rejected: %v", err)
	}
}

func TestSeriesAPI(t *testing.T) {
	l := randomLog(t, 41, 12, 150, 500)
	spec, _ := events.Span(l, 200, 100)
	cfg := DefaultConfig()
	cfg.Directed = true
	eng, _ := NewEngine(l, spec, cfg, nil)
	s, err := eng.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	r := s.Window(0)
	top := r.TopK(3)
	if len(top) == 0 {
		t.Fatal("TopK empty on non-empty window")
	}
	for i := 1; i < len(top); i++ {
		if top[i].Rank > top[i-1].Rank {
			t.Fatal("TopK not descending")
		}
	}
	if r.Rank(top[0].Vertex) != top[0].Rank {
		t.Fatal("Rank lookup disagrees with TopK")
	}
	var sum float64
	r.ForEach(func(_ int32, rank float64) { sum += rank })
	if math.Abs(sum-1) > 1e-8 {
		t.Fatalf("ranks sum to %v", sum)
	}
	if s.String() == "" {
		t.Fatal("empty series string")
	}
}

func TestModeStrings(t *testing.T) {
	if AppLevel.String() != "app-level" || WindowLevel.String() != "window-level" || Nested.String() != "nested" {
		t.Fatal("mode names wrong")
	}
	if ParallelMode(9).String() == "" {
		t.Fatal("unknown values should still format")
	}
}

func TestPaperExampleSeries(t *testing.T) {
	// The Fig. 2 graph: vertex 7 joins in T2 and becomes well-connected
	// (4 incident edges); vertex 1 is absent from T2.
	raw := []events.Event{
		ev(1, 2, 20), ev(3, 5, 24), ev(4, 6, 40), ev(2, 3, 61), ev(2, 4, 71),
		ev(5, 6, 104), ev(2, 7, 123), ev(4, 7, 126), ev(5, 7, 127), ev(6, 7, 130),
		ev(1, 2, 157), ev(1, 3, 158), ev(2, 5, 161), ev(3, 5, 164),
	}
	l, err := events.NewLog(raw, 8)
	if err != nil {
		t.Fatalf("NewLog: %v", err)
	}
	sym := l.Symmetrize()
	spec := events.WindowSpec{T0: 0, Delta: 106, Slide: 30, Count: 3}
	cfg := DefaultConfig()
	cfg.Directed = false
	eng, err := NewEngine(sym, spec, cfg, nil)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	s, err := eng.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s.Window(0).Rank(7) != 0 {
		t.Fatal("vertex 7 should be absent in T1")
	}
	if s.Window(1).Rank(7) <= 0 {
		t.Fatal("vertex 7 should be active in T2")
	}
	if s.Window(1).Rank(1) != 0 {
		t.Fatal("vertex 1 should be absent in T2")
	}
	// Vertex 2 is the top hub in T3 (degree 5).
	top := s.Window(2).TopK(1)
	if len(top) != 1 || top[0].Vertex != 2 {
		t.Fatalf("T3 top vertex = %v, want 2", top)
	}
	checkAgainstOracle(t, sym, spec, s, "paper-example")
}

func TestBurstyLogMatchesOracle(t *testing.T) {
	// Bursty log: one burst puts most events into one multi-window
	// graph; every window must still match the oracle.
	rng := rand.New(rand.NewSource(44))
	var evs []events.Event
	tcur := int64(0)
	add := func(n int, step int64) {
		for i := 0; i < n; i++ {
			tcur += rng.Int63n(step) + 1
			evs = append(evs, ev(int32(rng.Intn(30)), int32(rng.Intn(30)), tcur))
		}
	}
	add(60, 40)
	add(600, 1)
	add(60, 40)
	l, err := events.NewLog(evs, 30)
	if err != nil {
		t.Fatalf("NewLog: %v", err)
	}
	spec, err := events.Span(l, 400, 120)
	if err != nil {
		t.Fatalf("Span: %v", err)
	}
	cfg := DefaultConfig()
	cfg.Directed = true
	cfg.NumMultiWindows = 4
	eng, err := NewEngine(l, spec, cfg, nil)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	s, err := eng.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	checkAgainstOracle(t, l, spec, s, "bursty")
}

func TestExportRoundTrip(t *testing.T) {
	l := randomLog(t, 45, 15, 200, 800)
	spec, _ := events.Span(l, 200, 100)
	cfg := DefaultConfig()
	cfg.Directed = true
	eng, _ := NewEngine(l, spec, cfg, nil)
	s, err := eng.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var buf bytes.Buffer
	if err := results.Write(&buf, s.Export()); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := results.Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.Spec != spec || got.NumVertices != l.NumVertices() {
		t.Fatalf("header mismatch: %+v", got.Spec)
	}
	for w := 0; w < spec.Count; w++ {
		want := s.Window(w).Dense(l.NumVertices())
		gotDense := got.Windows[w].Dense(l.NumVertices())
		for v := range want {
			if want[v] != gotDense[v] {
				t.Fatalf("window %d vertex %d: %v != %v", w, v, want[v], gotDense[v])
			}
		}
		if got.Windows[w].Iterations != s.Window(w).Iterations ||
			got.Windows[w].Converged != s.Window(w).Converged {
			t.Fatalf("window %d metadata mismatch", w)
		}
	}
}

func TestRankSumsInvariantQuick(t *testing.T) {
	// Every window's retained ranks must sum to 1 (or 0 when empty),
	// across random configurations.
	l := randomLog(t, 47, 20, 400, 2000)
	spec, _ := events.Span(l, 300, 150)
	f := func(modeRaw, mwRaw uint8, partial bool) bool {
		cfg := DefaultConfig()
		cfg.Mode = ParallelMode(modeRaw % 3)
		cfg.NumMultiWindows = int(mwRaw%4) + 1
		cfg.PartialInit = partial
		cfg.Directed = true
		eng, err := NewEngine(l, spec, cfg, nil)
		if err != nil {
			return false
		}
		s, err := eng.Run(context.Background())
		if err != nil {
			return false
		}
		for w := 0; w < s.Len(); w++ {
			var sum float64
			if s.Window(w).ActiveVertices == 0 {
				continue
			}
			s.Window(w).ForEach(func(_ int32, r float64) { sum += r })
			if math.Abs(sum-1) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestTopKEdgeCases(t *testing.T) {
	l := randomLog(t, 48, 8, 40, 100)
	spec := events.WindowSpec{T0: 0, Delta: 100, Slide: 200, Count: 1}
	cfg := DefaultConfig()
	cfg.Directed = true
	eng, _ := NewEngine(l, spec, cfg, nil)
	s, err := eng.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	r := s.Window(0)
	if got := r.TopK(0); len(got) != 0 {
		t.Fatalf("TopK(0) = %v", got)
	}
	all := r.TopK(1 << 20)
	if int32(len(all)) != r.ActiveVertices {
		t.Fatalf("TopK(huge) returned %d, active %d", len(all), r.ActiveVertices)
	}
}
