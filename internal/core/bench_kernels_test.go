package core

import (
	"context"
	"testing"

	"pmpr/internal/events"
	"pmpr/internal/sched"
)

// benchSetup builds a shared log/spec for the kernel microbenchmarks:
// big enough that an iteration does real work, small enough that the
// full matrix of mode benchmarks stays fast.
func benchLogSpec(b *testing.B) (*events.Log, events.WindowSpec) {
	b.Helper()
	l := benchRandomLog(b, 7, 2000, 40000, 20000)
	return l, events.WindowSpec{T0: 0, Delta: 5000, Slide: 2500, Count: 6}
}

func benchRandomLog(b *testing.B, seed int64, n int32, m int, span int64) *events.Log {
	b.Helper()
	evs := make([]events.Event, m)
	state := uint64(seed)
	next := func(mod int64) int64 {
		state = state*6364136223846793005 + 1442695040888963407
		v := int64(state >> 33)
		return v % mod
	}
	tcur := int64(0)
	for i := range evs {
		tcur += next(span/int64(m) + 1)
		evs[i] = events.Event{U: int32(next(int64(n))), V: int32(next(int64(n))), T: tcur}
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

// BenchmarkIter measures one steady-state PageRank iteration per op for
// every mode: MaxIter is set to b.N with a tolerance no run reaches,
// so one Run performs exactly b.N iterations per window chain and the
// per-solve setup cost amortizes away. ReportAllocs makes the headline
// claim measurable: allocs/op is 0 once the arena is warm. The nested
// case's 4 warm-start chains fill the pool, so the plan runs them
// unforked, as window-level does.
func BenchmarkIter(b *testing.B) {
	l, spec := benchLogSpec(b)
	for _, m := range benchModes {
		b.Run(m.name, func(b *testing.B) {
			var pool *sched.Pool
			if m.workers > 0 {
				pool = sched.NewPool(m.workers)
				defer pool.Close()
			}
			cfg := benchConfig(m.mode)
			cfg.Opts.Tol = 1e-300
			cfg.Opts.MaxIter = b.N
			eng, err := NewEngine(l, spec, cfg, pool)
			if err != nil {
				b.Fatalf("NewEngine: %v", err)
			}
			// Warm the arena (and the scheduler's job pool) outside
			// the measured region.
			warm := cfg
			warm.Opts.MaxIter = 2
			wEng, err := NewEngineFromTemporal(eng.Temporal(), warm, pool)
			if err != nil {
				b.Fatalf("warm engine: %v", err)
			}
			if _, err := wEng.Run(context.Background()); err != nil {
				b.Fatalf("warm Run: %v", err)
			}
			eng.solve.arena = wEng.solve.arena // share the warmed arena
			b.ReportAllocs()
			b.ResetTimer()
			if _, err := eng.Run(context.Background()); err != nil {
				b.Fatalf("Run: %v", err)
			}
		})
	}
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
