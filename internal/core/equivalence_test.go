package core

import (
	"context"

	"fmt"
	"math"
	"math/rand"
	"testing"

	"pmpr/internal/events"
	"pmpr/internal/fault"
	"pmpr/internal/obs"
	"pmpr/internal/sched"
)

// equivCfg returns a config that converges far past the default
// tolerance, so runs that take different warm-start paths (work
// stealing moves range boundaries) still land within 1e-12 of the same
// fixed point and the series are comparable entry-wise.
func equivCfg(mode ParallelMode, partial bool) Config {
	cfg := DefaultConfig()
	cfg.Mode = mode
	cfg.PartialInit = partial
	cfg.NumMultiWindows = 3
	cfg.Directed = true
	cfg.Opts.Tol = 1e-14
	cfg.Opts.MaxIter = 2000
	return cfg
}

func denseSeries(t *testing.T, s *Series, label string) [][]float64 {
	t.Helper()
	out := make([][]float64, s.Len())
	for w := 0; w < s.Len(); w++ {
		r := s.Window(w)
		if !r.HasRanks() {
			t.Fatalf("%s: window %d has no ranks", label, w)
		}
		out[w] = r.Dense(s.NumVertices)
	}
	return out
}

// TestScratchRewriteMatchesSerial pins the arena-backed kernel to the
// serial execution of the same configuration: every parallel mode and
// PartialInit setting must produce the same rank series to within
// 1e-12 on a work-stealing pool. Subtests are named after the engine's
// one kernel, SpMV.
func TestScratchRewriteMatchesSerial(t *testing.T) {
	l := randomLog(t, 77, 30, 300, 900)
	spec := events.WindowSpec{T0: 0, Delta: 180, Slide: 95, Count: 8}
	pool := sched.NewPool(4)
	defer pool.Close()

	for _, partial := range []bool{false, true} {
		cfg := equivCfg(AppLevel, partial)
		serialEng, err := NewEngine(l, spec, cfg, nil)
		if err != nil {
			t.Fatalf("serial NewEngine: %v", err)
		}
		serialSeries, err := serialEng.Run(context.Background())
		if err != nil {
			t.Fatalf("serial Run: %v", err)
		}
		want := denseSeries(t, serialSeries, "serial")

		for _, mode := range []ParallelMode{AppLevel, WindowLevel, Nested} {
			label := fmt.Sprintf("spmv/%v/partial=%v", mode, partial)
			t.Run(label, func(t *testing.T) {
				eng, err := NewEngine(l, spec, equivCfg(mode, partial), pool)
				if err != nil {
					t.Fatalf("NewEngine: %v", err)
				}
				s, err := eng.Run(context.Background())
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				got := denseSeries(t, s, label)
				for w := range want {
					for v := range want[w] {
						d := got[w][v] - want[w][v]
						if d < 0 {
							d = -d
						}
						if d > 1e-12 {
							t.Fatalf("window %d vertex %d: got %v want %v (|diff|=%v)",
								w, v, got[w][v], want[w][v], d)
						}
					}
				}
			})
		}
	}
}

// TestSerialRunTwiceBitIdentical reruns the same serial engine and
// demands bit-identical ranks. The second run executes entirely on
// recycled arena buffers, so any stale state surviving a buffer's
// round trip through the free lists would show up here.
func TestSerialRunTwiceBitIdentical(t *testing.T) {
	l := randomLog(t, 78, 25, 250, 700)
	spec := events.WindowSpec{T0: 0, Delta: 160, Slide: 90, Count: 6}
	eng, err := NewEngine(l, spec, equivCfg(AppLevel, true), nil)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	s1, err := eng.Run(context.Background())
	if err != nil {
		t.Fatalf("first Run: %v", err)
	}
	first := denseSeries(t, s1, "first")
	s2, err := eng.Run(context.Background())
	if err != nil {
		t.Fatalf("second Run: %v", err)
	}
	second := denseSeries(t, s2, "second")
	for w := range first {
		for v := range first[w] {
			if first[w][v] != second[w][v] {
				t.Fatalf("window %d vertex %d differs across runs: %v vs %v",
					w, v, first[w][v], second[w][v])
			}
		}
	}
}

// TestDiscardRanksSteadyStateHasZeroMisses is the regression test for
// the final-window rank leak: under DiscardRanks every buffer — the
// rank vector of each unit's last window included — must return to the
// arena, so a second Run is served entirely from the free lists.
func TestDiscardRanksSteadyStateHasZeroMisses(t *testing.T) {
	if raceEnabled {
		// The serial engine's scratch buffer travels through a
		// sync.Pool, and under the race detector sync.Pool randomly
		// drops a fraction of Puts by design, so miss counts are not
		// deterministic here.
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	l := randomLog(t, 79, 25, 250, 700)
	spec := events.WindowSpec{T0: 0, Delta: 160, Slide: 90, Count: 7}
	cfg := equivCfg(AppLevel, true)
	cfg.DiscardRanks = true
	eng, err := NewEngine(l, spec, cfg, nil)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if _, err := eng.Run(context.Background()); err != nil {
		t.Fatalf("warm-up Run: %v", err)
	}
	before := eng.ScratchStats()
	s, err := eng.Run(context.Background())
	if err != nil {
		t.Fatalf("second Run: %v", err)
	}
	d := eng.ScratchStats().Delta(before)
	if d.Gets == 0 {
		t.Fatalf("second run made no buffer requests")
	}
	if d.Misses != 0 {
		t.Fatalf("second run allocated %d fresh buffers (leak): %+v", d.Misses, d)
	}
	if s.Report.Scratch == nil || s.Report.Scratch.HitRate != 1 {
		t.Fatalf("report scratch = %+v, want hit rate 1", s.Report.Scratch)
	}
}

// TestSteadyStateIterationsDoNotAllocate is the hot-path allocation
// gate: for every chain grain K, every pooled mode, the degrade rung
// and an attached journal, it compares the allocation count of a
// 1-iteration run against a 101-iteration run of the same warmed
// engine. The difference is what the 100 extra steady-state iterations
// allocated, and it must be zero in every cell. The degrade column arms
// a persistent fault on the solve point, so every window solves on the
// serial rung.
//
// K is Config.Grain. It is the grain of the app-level plans' forked
// vertex loops and the shortest warm-start chain a pooled window-level
// or nested plan cuts (sched.InitialSpan): at K = 1, 3, 8 and 64 each
// ten-window multi-window becomes 5, 4, 2 and 1 chains. The serial row
// has no pool, so its plan ignores K and runs only at K=1. The 2-worker
// nested plans have at least 2 units and do not fork; the
// nested-forked row plans one multi-window, which only K=64 keeps as a
// single unit that cannot fill the pool, so its healthy cells fork.
func TestSteadyStateIterationsDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	defer fault.Reset()
	fault.Reset()
	l := randomLog(t, 80, 25, 250, 700)
	spec := events.WindowSpec{T0: 0, Delta: 160, Slide: 27, Count: 20}
	pool := sched.NewPool(2)
	defer pool.Close()
	pools := []struct {
		name string
		mode ParallelMode
		pool *sched.Pool
		mws  int // multi-windows
	}{
		{"serial", AppLevel, nil, 2},
		{"app", AppLevel, pool, 2},
		{"window", WindowLevel, pool, 2},
		{"nested", Nested, pool, 2},
		{"nested-forked", Nested, pool, 1},
	}
	for _, grain := range []int{1, 3, 8, 64} {
		for _, p := range pools {
			if (p.pool == nil && grain != 1) || (p.mws == 1 && grain < spec.Count) {
				continue
			}
			for _, degrade := range []bool{false, true} {
				for _, journal := range []bool{false, true} {
					label := fmt.Sprintf("K=%d/%s/degrade=%v/journal=%v", grain, p.name, degrade, journal)
					t.Run(label, func(t *testing.T) {
						if degrade {
							defer fault.Arm(fault.Rule{Point: PointSolveWindow, Mode: fault.ModeError, Count: 0})()
						}
						cfg := equivCfg(p.mode, true)
						cfg.Grain = grain
						cfg.NumMultiWindows = p.mws
						cfg.DiscardRanks = true
						cfg.Opts.Tol = 1e-300 // never converge early; iterate MaxIter times
						if journal {
							cfg.Journal = obs.NewJournal(256)
						}
						if p.mws == 1 {
							eng, err := NewEngine(l, spec, cfg, p.pool)
							if err != nil || !eng.Plan().ForkVertexLoops {
								t.Fatalf("nested-forked plan does not fork (NewEngine err %v)", err)
							}
						}
						short := steadyStateAllocs(t, l, spec, cfg, 1, p.pool, degrade)
						long := steadyStateAllocs(t, l, spec, cfg, 101, p.pool, degrade)
						if long != short {
							t.Errorf("100 extra iterations allocated %.1f objects (run allocs %.1f -> %.1f)",
								long-short, short, long)
						}
					})
				}
			}
		}
	}
}

// steadyStateAllocs warms an engine running maxIter iterations per
// window with one run, then returns the fewest allocations of several
// further runs. A pool's sync.Pool
// misses and deque growth depend on which thread a worker lands on
// and on GC timing, so they add a few allocations to some runs; an
// allocation in the iteration loop adds to every run and survives the
// minimum. With degraded set it also checks every window solved on the
// degrade rung.
func steadyStateAllocs(t *testing.T, l *events.Log, spec events.WindowSpec, cfg Config, maxIter int, pool *sched.Pool, degraded bool) float64 {
	t.Helper()
	cfg.Opts.MaxIter = maxIter
	eng, err := NewEngine(l, spec, cfg, pool)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	s, err := eng.Run(context.Background()) // warm the arena
	if err != nil {
		t.Fatalf("warm-up Run: %v", err)
	}
	for w := 0; degraded && w < s.Len(); w++ {
		if st := s.Window(w).Status; st != WindowDegraded {
			t.Fatalf("window %d status %v, want degraded", w, st)
		}
	}
	best := math.Inf(1)
	for trial := 0; trial < 3; trial++ {
		best = math.Min(best, testing.AllocsPerRun(2, func() {
			if _, err := eng.Run(context.Background()); err != nil {
				t.Fatalf("Run: %v", err)
			}
		}))
	}
	return best
}

// TestTimeShiftIsInvariant is a metamorphic check of the window
// semantics: moving every event time and the window origin by the same
// constant must not change which events a window holds, so every
// window's ranks, iteration count and residual must be bit-identical.
// Runs are serial, whose warm-start chains are deterministic.
func TestTimeShiftIsInvariant(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		l := randomLog(t, 700+seed, 30, 400, 1500)
		spec, err := events.Span(l, 300, 70)
		if err != nil {
			t.Fatalf("Span: %v", err)
		}
		for _, shift := range []int64{-1_000_003, 1 << 40} {
			evs := append([]events.Event(nil), l.Events()...)
			for i := range evs {
				evs[i].T += shift
			}
			moved, err := events.NewLogSorted(evs, l.NumVertices())
			if err != nil {
				t.Fatalf("NewLogSorted: %v", err)
			}
			movedSpec := spec
			movedSpec.T0 += shift
			for _, partial := range []bool{false, true} {
				label := fmt.Sprintf("seed %d shift %d partial=%v", seed, shift, partial)
				cfg := DefaultConfig()
				cfg.PartialInit = partial
				cfg.Directed = true
				cfg.NumMultiWindows = 3
				want := runSeries(t, l, spec, cfg, label)
				got := runSeries(t, moved, movedSpec, cfg, label+" shifted")
				for w := 0; w < want.Len(); w++ {
					a, b := want.Window(w), got.Window(w)
					if a.Iterations != b.Iterations || a.FinalResidual != b.FinalResidual ||
						a.ActiveVertices != b.ActiveVertices || a.Converged != b.Converged {
						t.Fatalf("%s window %d: iterations %d, residual %v, active %d, converged %v shifted to %d, %v, %d, %v",
							label, w, a.Iterations, a.FinalResidual, a.ActiveVertices, a.Converged,
							b.Iterations, b.FinalResidual, b.ActiveVertices, b.Converged)
					}
					ra, rb := a.Dense(l.NumVertices()), b.Dense(l.NumVertices())
					for v := range ra {
						if ra[v] != rb[v] {
							t.Fatalf("%s window %d vertex %d: rank %v shifted to %v", label, w, v, ra[v], rb[v])
						}
					}
				}
			}
		}
	}
}

// TestVertexRelabelAndTieOrderAreInvariant is a metamorphic check of
// two orders the input fixes but the model does not. Relabeling the
// vertices by a permutation must carry every window's ranks along the
// permutation (to within rounding: the sums run in another order).
// Reordering events that share a timestamp names the same edges, so
// ranks, iteration counts and residuals must be bit-identical. Runs are
// serial, whose warm-start chains are deterministic.
func TestVertexRelabelAndTieOrderAreInvariant(t *testing.T) {
	const n = 30
	for seed := int64(0); seed < 5; seed++ {
		l := randomLog(t, 800+seed, n, 400, 1200)
		spec, err := events.Span(l, 240, 67)
		if err != nil {
			t.Fatalf("Span: %v", err)
		}
		rng := rand.New(rand.NewSource(seed))
		perm := rng.Perm(n)
		relabeled := append([]events.Event(nil), l.Events()...)
		for i := range relabeled {
			relabeled[i].U, relabeled[i].V = int32(perm[relabeled[i].U]), int32(perm[relabeled[i].V])
		}
		shuffled := append([]events.Event(nil), l.Events()...)
		tied := 0
		for lo := 0; lo < len(shuffled); {
			hi := lo + 1
			for hi < len(shuffled) && shuffled[hi].T == shuffled[lo].T {
				hi++
			}
			if hi-lo > 1 {
				tied += hi - lo
				group := shuffled[lo:hi]
				rng.Shuffle(len(group), func(i, j int) { group[i], group[j] = group[j], group[i] })
			}
			lo = hi
		}
		if tied == 0 {
			t.Fatalf("seed %d: log has no tied timestamps to shuffle", seed)
		}
		relabeledLog, err := events.NewLogSorted(relabeled, n)
		if err != nil {
			t.Fatalf("NewLogSorted: %v", err)
		}
		shuffledLog, err := events.NewLogSorted(shuffled, n)
		if err != nil {
			t.Fatalf("NewLogSorted: %v", err)
		}
		for _, partial := range []bool{false, true} {
			for _, directed := range []bool{false, true} {
				label := fmt.Sprintf("seed %d partial=%v directed=%v", seed, partial, directed)
				cfg := DefaultConfig()
				cfg.PartialInit = partial
				cfg.Directed = directed
				cfg.NumMultiWindows = 3
				cfg.Opts.Tol = 1e-14
				want := runSeries(t, l, spec, cfg, label)
				moved := runSeries(t, relabeledLog, spec, cfg, label+" relabeled")
				reordered := runSeries(t, shuffledLog, spec, cfg, label+" tie-shuffled")
				for w := 0; w < want.Len(); w++ {
					a := want.Window(w)
					ra := a.Dense(n)
					rm := moved.Window(w).Dense(n)
					for v := range ra {
						if d := math.Abs(ra[v] - rm[perm[v]]); d > 1e-12 {
							t.Fatalf("%s window %d vertex %d: rank %v relabeled to %v (|diff|=%v)",
								label, w, v, ra[v], rm[perm[v]], d)
						}
					}
					b := reordered.Window(w)
					if a.Iterations != b.Iterations || a.FinalResidual != b.FinalResidual {
						t.Fatalf("%s window %d: iterations %d, residual %v tie-shuffled to %d, %v",
							label, w, a.Iterations, a.FinalResidual, b.Iterations, b.FinalResidual)
					}
					rb := b.Dense(n)
					for v := range ra {
						if ra[v] != rb[v] {
							t.Fatalf("%s window %d vertex %d: rank %v tie-shuffled to %v", label, w, v, ra[v], rb[v])
						}
					}
				}
			}
		}
	}
}

// runSeries solves l over spec serially.
func runSeries(t *testing.T, l *events.Log, spec events.WindowSpec, cfg Config, label string) *Series {
	t.Helper()
	eng, err := NewEngine(l, spec, cfg, nil)
	if err != nil {
		t.Fatalf("%s: NewEngine: %v", label, err)
	}
	s, err := eng.Run(context.Background())
	if err != nil {
		t.Fatalf("%s: Run: %v", label, err)
	}
	return s
}
