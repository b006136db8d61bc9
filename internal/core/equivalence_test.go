package core

import (
	"context"

	"fmt"
	"testing"

	"pmpr/internal/events"
	"pmpr/internal/sched"
)

// equivCfg returns a config that converges far past the default
// tolerance, so runs that take different warm-start paths (work
// stealing moves range boundaries) still land within 1e-12 of the same
// fixed point and the series are comparable entry-wise.
func equivCfg(kernel KernelID, mode ParallelMode, partial bool) Config {
	cfg := DefaultConfig()
	cfg.Kernel = kernel
	cfg.Mode = mode
	cfg.PartialInit = partial
	cfg.NumMultiWindows = 3
	cfg.Directed = true
	cfg.VectorLen = 4
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

// TestScratchRewriteMatchesSerial pins the arena-backed kernels to the
// serial execution of the same configuration: every kernel, parallel
// mode, and PartialInit setting must produce the same rank series to
// within 1e-12 on a work-stealing pool.
func TestScratchRewriteMatchesSerial(t *testing.T) {
	l := randomLog(t, 77, 30, 300, 900)
	spec := events.WindowSpec{T0: 0, Delta: 180, Slide: 95, Count: 8}
	pool := sched.NewPool(4)
	defer pool.Close()

	for _, kernel := range []KernelID{SpMV, SpMM} {
		for _, partial := range []bool{false, true} {
			cfg := equivCfg(kernel, AppLevel, partial)
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
				label := fmt.Sprintf("%v/%v/partial=%v", kernel, mode, partial)
				t.Run(label, func(t *testing.T) {
					eng, err := NewEngine(l, spec, equivCfg(kernel, mode, partial), pool)
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
}

// TestSerialRunTwiceBitIdentical reruns the same serial engine and
// demands bit-identical ranks. The second run executes entirely on
// recycled arena buffers, so any stale state surviving a buffer's
// round trip through the free lists would show up here.
func TestSerialRunTwiceBitIdentical(t *testing.T) {
	l := randomLog(t, 78, 25, 250, 700)
	spec := events.WindowSpec{T0: 0, Delta: 160, Slide: 90, Count: 6}
	for _, kernel := range []KernelID{SpMV, SpMM} {
		eng, err := NewEngine(l, spec, equivCfg(kernel, AppLevel, true), nil)
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
					t.Fatalf("%v: window %d vertex %d differs across runs: %v vs %v",
						kernel, w, v, first[w][v], second[w][v])
				}
			}
		}
	}
}

// TestDiscardRanksSteadyStateHasZeroMisses is the regression test for
// the final-batch rank leak: under DiscardRanks every buffer — the
// SpMM staging vectors of the last batch included — must return to the
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
	for _, kernel := range []KernelID{SpMV, SpMM} {
		cfg := equivCfg(kernel, AppLevel, true)
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
			t.Fatalf("%v: second run made no buffer requests", kernel)
		}
		if d.Misses != 0 {
			t.Fatalf("%v: second run allocated %d fresh buffers (leak): %+v", kernel, d.Misses, d)
		}
		if s.Report.Scratch == nil || s.Report.Scratch.HitRate != 1 {
			t.Fatalf("%v: report scratch = %+v, want hit rate 1", kernel, s.Report.Scratch)
		}
	}
}

// TestSteadyStateIterationsDoNotAllocate compares the allocation count
// of a 1-iteration run against a 101-iteration run of the same warmed
// engine: the difference is what the 100 extra steady-state iterations
// allocated, and it must be zero for every kernel.
func TestSteadyStateIterationsDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	l := randomLog(t, 80, 25, 250, 700)
	spec := events.WindowSpec{T0: 0, Delta: 160, Slide: 90, Count: 6}
	for _, kernel := range []KernelID{SpMV, SpMM} {
		measure := func(maxIter int) float64 {
			cfg := equivCfg(kernel, AppLevel, true)
			cfg.DiscardRanks = true
			cfg.Opts.Tol = 1e-300 // never converge early; iterate MaxIter times
			cfg.Opts.MaxIter = maxIter
			eng, err := NewEngine(l, spec, cfg, nil)
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			if _, err := eng.Run(context.Background()); err != nil { // warm the arena
				t.Fatalf("warm-up Run: %v", err)
			}
			return testing.AllocsPerRun(3, func() {
				if _, err := eng.Run(context.Background()); err != nil {
					t.Fatalf("Run: %v", err)
				}
			})
		}
		short := measure(1)
		long := measure(101)
		if long != short {
			t.Errorf("%v: 100 extra iterations allocated %.1f objects (run allocs %.1f -> %.1f)",
				kernel, long-short, short, long)
		}
	}
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
			for _, kernel := range []KernelID{SpMV, SpMM} {
				for _, partial := range []bool{false, true} {
					label := fmt.Sprintf("seed %d shift %d %v partial=%v", seed, shift, kernel, partial)
					cfg := DefaultConfig()
					cfg.Kernel = kernel
					cfg.PartialInit = partial
					cfg.Directed = true
					cfg.NumMultiWindows = 3
					cfg.VectorLen = 4
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
