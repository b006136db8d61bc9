package core

import (
	"context"
	"testing"

	"pmpr/internal/events"
	"pmpr/internal/sched"
)

// benchLogSpec builds a shared log/spec for the kernel microbenchmarks:
// big enough that an iteration does real work, small enough that the
// full matrix of mode benchmarks stays fast. Every window holds events,
// so a run crosses real window changes; the setup fails otherwise.
func benchLogSpec(b *testing.B) (*events.Log, events.WindowSpec) {
	b.Helper()
	l := benchRandomLog(b, 7, 2000, 40000, 20000)
	spec := events.WindowSpec{T0: 0, Delta: 5000, Slide: 2500, Count: 6}
	for w := 0; w < spec.Count; w++ {
		if l.CountInRange(spec.Interval(w)) == 0 {
			b.Fatalf("window %d of the benchmark log holds no event", w)
		}
	}
	return l, spec
}

// benchRandomLog draws m events between n vertices, spread evenly over
// the time span [0, span).
func benchRandomLog(b *testing.B, seed int64, n int32, m int, span int64) *events.Log {
	b.Helper()
	evs := make([]events.Event, m)
	state := uint64(seed)
	next := func(mod int64) int64 {
		state = state*6364136223846793005 + 1442695040888963407
		v := int64(state >> 33)
		return v % mod
	}
	for i := range evs {
		evs[i] = events.Event{U: int32(next(int64(n))), V: int32(next(int64(n))), T: int64(i) * span / int64(m)}
	}
	l, err := events.NewLog(evs, n)
	if err != nil {
		b.Fatalf("NewLog: %v", err)
	}
	return l
}

func benchConfig(mode ParallelMode) Config {
	cfg := DefaultConfig()
	cfg.Mode = mode
	cfg.NumMultiWindows = 2
	cfg.Directed = true
	cfg.DiscardRanks = true
	return cfg
}

type benchMode struct {
	name    string
	mode    ParallelMode
	workers int
}

var benchModes = []benchMode{
	{"serial", AppLevel, 0},
	{"app-level", AppLevel, 4},
	{"window-level", WindowLevel, 4},
	{"nested", Nested, 4},
}

// BenchmarkIter measures one steady-state PageRank iteration of every
// window per op for every mode: MaxIter is set to b.N with a tolerance
// no run reaches, so one Run performs exactly b.N iterations per window
// and the per-solve setup cost amortizes away. ReportAllocs makes the
// headline claim measurable: allocs/op is 0 once the arena is warm, in
// runs that cross six windows' enter/leave deltas. The nested
// case's 4 warm-start chains fill the pool, so the plan runs them
// unforked, as window-level does. The CI alloc gate therefore covers
// all three updates: the serial, window-level and nested cells run
// Gauss–Seidel, and their undirected twins (prefix "undirected/"),
// which solve the symmetrized log, conjugate gradient; both app-level
// cells, whose plans fork, run Jacobi over windows that span several
// chunks, so their sweeps fork.
//
// The measured Run solves on an arena warmArena built: which unit
// lands on which workspace depends on the pool's schedule, so a pooled
// warm-up Run can leave a workspace too small for the unit the measured
// Run hands it, or make fewer workspaces than that Run holds at once.
// The measured Run would then grow buffers, which B/op shows as
// kilobytes.
func BenchmarkIter(b *testing.B) {
	raw, spec := benchLogSpec(b)
	for _, d := range directions {
		l := d.input(raw)
		for _, m := range benchModes {
			b.Run(d.label+m.name, func(b *testing.B) {
				var pool *sched.Pool
				if m.workers > 0 {
					pool = sched.NewPool(m.workers)
					defer pool.Close()
				}
				cfg := benchConfig(m.mode)
				cfg.Directed = d.directed
				cfg.Opts.Tol = 1e-300
				cfg.Opts.MaxIter = b.N
				eng, err := NewEngine(l, spec, cfg, pool)
				if err != nil {
					b.Fatalf("NewEngine: %v", err)
				}
				// Warm the scheduler's job pool outside the measured
				// region.
				warm := cfg
				warm.Opts.MaxIter = 2
				wEng, err := NewEngineFromTemporal(eng.Temporal(), warm, pool)
				if err != nil {
					b.Fatalf("warm engine: %v", err)
				}
				warmed, err := wEng.Run(context.Background())
				if err != nil {
					b.Fatalf("warm Run: %v", err)
				}
				if eng.Plan().ForkVertexLoops {
					checkWindowsSpanChunks(b, warmed)
				}
				eng.solve.arena = warmArena(b, wEng.Plan(), m.workers)
				b.ReportAllocs()
				b.ResetTimer()
				if _, err := eng.Run(context.Background()); err != nil {
					b.Fatalf("Run: %v", err)
				}
			})
		}
	}
}

// warmArena returns an arena of one workspace per pool worker (one
// when serial), the most units an unforked plan runs at once, each of
// which has solved every unit of plan alone, so it holds every role
// buffer and rank vector at the largest size any unit asks for.
func warmArena(b *testing.B, plan *SolvePlan, workers int) *scratchArena {
	b.Helper()
	a := &scratchArena{}
	for i := 0; i < max(1, workers); i++ {
		st := NewSolveStage(nil)
		for _, u := range plan.Units {
			p := *plan
			p.Units = []SolveUnit{u}
			if _, err := st.Run(context.Background(), &p); err != nil {
				b.Fatalf("warming a workspace: %v", err)
			}
		}
		for _, ws := range st.arena.idle {
			ws.arena = a
			a.idle = append(a.idle, ws)
		}
	}
	return a
}

// BenchmarkRun measures a whole converging Run (default tolerance,
// DiscardRanks) per op for every mode.
func BenchmarkRun(b *testing.B) {
	l, spec := benchLogSpec(b)
	for _, m := range benchModes {
		b.Run(m.name, func(b *testing.B) {
			var pool *sched.Pool
			if m.workers > 0 {
				pool = sched.NewPool(m.workers)
				defer pool.Close()
			}
			eng, err := NewEngine(l, spec, benchConfig(m.mode), pool)
			if err != nil {
				b.Fatalf("NewEngine: %v", err)
			}
			if _, err := eng.Run(context.Background()); err != nil {
				b.Fatalf("warm Run: %v", err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(context.Background()); err != nil {
					b.Fatalf("Run: %v", err)
				}
			}
		})
	}
}
