package pmpr

// One testing.B benchmark per table/figure of the paper's evaluation
// (Sec. 5-6), plus substrate microbenchmarks. The full printed tables
// come from cmd/pmbench; these targets measure the underlying kernels
// so `go test -bench=.` regenerates every comparison's timing series.
//
// Datasets are generated once per size at a small scale so the whole
// suite is laptop-friendly; see internal/bench for the full-scale
// harness.

import (
	"context"

	"fmt"
	"sync"
	"testing"

	"pmpr/internal/analysis"
	"pmpr/internal/core"
	"pmpr/internal/events"
	"pmpr/internal/gen"
	"pmpr/internal/kcore"
	"pmpr/internal/offline"
	"pmpr/internal/sched"
	"pmpr/internal/streaming"
	"pmpr/internal/tcsr"
	"pmpr/internal/wcc"
)

const benchScale = 0.05

var (
	logOnce sync.Once
	logs    map[string]*events.Log
)

func dataset(b *testing.B, name string) *events.Log {
	b.Helper()
	logOnce.Do(func() {
		logs = make(map[string]*events.Log)
		for _, n := range gen.Names() {
			d, _ := gen.Get(n)
			l, err := d.Generate(benchScale, 1)
			if err != nil {
				panic(err)
			}
			logs[n] = l.Symmetrize()
		}
	})
	l, ok := logs[name]
	if !ok {
		b.Fatalf("unknown dataset %s", name)
	}
	return l
}

func spec(b *testing.B, l *events.Log, deltaDays float64, slideSec int64, maxWin int) events.WindowSpec {
	b.Helper()
	s, err := events.Span(l, int64(deltaDays*float64(gen.Day)), slideSec)
	if err != nil {
		b.Fatal(err)
	}
	if s.Count > maxWin {
		// Stretch the sliding offset so the sequence still tiles the
		// whole dataset (the paper's regime) with a tractable count.
		first, last, _ := l.TimeRange()
		slide := (last - first) / int64(maxWin)
		if slide < 1 {
			slide = 1
		}
		s, err = events.Span(l, int64(deltaDays*float64(gen.Day)), slide)
		if err != nil {
			b.Fatal(err)
		}
		if s.Count > maxWin {
			s.Count = maxWin
		}
	}
	return s
}

func postmortemCfg(kernel core.KernelID, mode core.ParallelMode, part sched.Partitioner, grain, mw int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Kernel = kernel
	cfg.Mode = mode
	cfg.Partitioner = part
	cfg.Grain = grain
	cfg.NumMultiWindows = mw
	cfg.VectorLen = 16
	cfg.Directed = false
	cfg.DiscardRanks = true
	return cfg
}

func runPostmortem(b *testing.B, l *events.Log, sp events.WindowSpec, cfg core.Config, pool *sched.Pool) {
	b.Helper()
	eng, err := core.NewEngine(l, sp, cfg, pool)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func runStreaming(b *testing.B, l *events.Log, sp events.WindowSpec, pool *sched.Pool) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := streaming.DefaultConfig()
		cfg.DiscardRanks = true
		r, err := streaming.NewRunner(l, sp, cfg, pool)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func runOffline(b *testing.B, l *events.Log, sp events.WindowSpec, pool *sched.Pool) {
	b.Helper()
	cfg := offline.DefaultConfig()
	cfg.DiscardRanks = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := offline.Run(l, sp, cfg, pool); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Datasets measures generating each synthetic dataset
// (Table 1's graph inventory).
func BenchmarkTable1Datasets(b *testing.B) {
	for _, name := range gen.Names() {
		d, _ := gen.Get(name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := d.Generate(benchScale, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig4Histogram measures the edge-distribution series of
// Figure 4.
func BenchmarkFig4Histogram(b *testing.B) {
	l := dataset(b, "wikitalk")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.Histogram(l, 60)
	}
}

// BenchmarkFig5ExecutionModels reproduces Figure 5: offline vs
// streaming vs (bare-bone) postmortem wall time per dataset.
func BenchmarkFig5ExecutionModels(b *testing.B) {
	pool := sched.NewPool(0)
	defer pool.Close()
	cases := []struct {
		name  string
		delta float64
		slide int64
	}{
		{"enron", 730, 172800},
		{"youtube", 60, 86400},
		{"epinions", 60, 86400},
		{"wikitalk", 90, 259200},
	}
	for _, c := range cases {
		l := dataset(b, c.name)
		sp := spec(b, l, c.delta, c.slide, 64)
		b.Run(c.name+"/offline", func(b *testing.B) { runOffline(b, l, sp, pool) })
		b.Run(c.name+"/streaming", func(b *testing.B) { runStreaming(b, l, sp, pool) })
		b.Run(c.name+"/postmortem", func(b *testing.B) {
			runPostmortem(b, l, sp, postmortemCfg(core.SpMV, core.AppLevel, sched.Static, 64, 6), pool)
		})
	}
}

// BenchmarkFig6PartialInit reproduces Figure 6: full vs partial
// initialization across window sizes.
func BenchmarkFig6PartialInit(b *testing.B) {
	pool := sched.NewPool(0)
	defer pool.Close()
	l := dataset(b, "wikitalk")
	for _, deltaDays := range []float64{10, 90, 180} {
		sp := spec(b, l, deltaDays, 43200, 64)
		for _, partial := range []bool{false, true} {
			label := fmt.Sprintf("delta%gd/partial=%v", deltaDays, partial)
			b.Run(label, func(b *testing.B) {
				cfg := postmortemCfg(core.SpMV, core.AppLevel, sched.Static, 64, 6)
				cfg.PartialInit = partial
				runPostmortem(b, l, sp, cfg, pool)
			})
		}
	}
}

// BenchmarkFig7Partitioners reproduces Figure 7's sweep: partitioner x
// parallelization level x kernel at a moderate window count.
func BenchmarkFig7Partitioners(b *testing.B) {
	pool := sched.NewPool(0)
	defer pool.Close()
	l := dataset(b, "wikitalk")
	sp := spec(b, l, 90, 43200, 96)
	for _, part := range []sched.Partitioner{sched.Auto, sched.Simple, sched.Static} {
		for _, mode := range []core.ParallelMode{core.Nested, core.AppLevel, core.WindowLevel} {
			for _, kernel := range []core.KernelID{core.SpMM, core.SpMV} {
				label := fmt.Sprintf("%v/%v/%v", part, mode, kernel)
				b.Run(label, func(b *testing.B) {
					runPostmortem(b, l, sp, postmortemCfg(kernel, mode, part, 2, 12), pool)
				})
			}
		}
	}
}

// BenchmarkFig8MultiWindow reproduces Figure 8: sensitivity to the
// number of multi-window graphs.
func BenchmarkFig8MultiWindow(b *testing.B) {
	pool := sched.NewPool(0)
	defer pool.Close()
	l := dataset(b, "wikitalk")
	sp := spec(b, l, 90, 43200, 96)
	for _, mw := range []int{1, 6, 24, 96} {
		b.Run(fmt.Sprintf("mw%d", mw), func(b *testing.B) {
			runPostmortem(b, l, sp, postmortemCfg(core.SpMM, core.Nested, sched.Auto, 2, mw), pool)
		})
	}
}

// BenchmarkFig9FewWindows reproduces Figure 9: only 6 windows, where
// window-level parallelism starves.
func BenchmarkFig9FewWindows(b *testing.B) {
	pool := sched.NewPool(0)
	defer pool.Close()
	l := dataset(b, "wikitalk")
	sp := spec(b, l, 90, 43200, 6)
	for _, mode := range []core.ParallelMode{core.Nested, core.AppLevel, core.WindowLevel} {
		b.Run(mode.String(), func(b *testing.B) {
			runPostmortem(b, l, sp, postmortemCfg(core.SpMM, mode, sched.Auto, 2, 6), pool)
		})
	}
}

// BenchmarkFig10ManyWindows reproduces Figure 10: a long window
// sequence, the regime where window-level parallelism shines.
func BenchmarkFig10ManyWindows(b *testing.B) {
	pool := sched.NewPool(0)
	defer pool.Close()
	l := dataset(b, "wikitalk")
	sp := spec(b, l, 90, 86400, 192)
	for _, mode := range []core.ParallelMode{core.Nested, core.AppLevel, core.WindowLevel} {
		b.Run(mode.String(), func(b *testing.B) {
			runPostmortem(b, l, sp, postmortemCfg(core.SpMM, mode, sched.Auto, 2, 24), pool)
		})
	}
}

// BenchmarkFig11BestVsStreaming reproduces Figure 11's per-dataset
// comparison: the tuned postmortem configuration and the streaming
// baseline on every dataset's first Table 1 cell.
func BenchmarkFig11BestVsStreaming(b *testing.B) {
	pool := sched.NewPool(0)
	defer pool.Close()
	for _, name := range gen.Names() {
		d, _ := gen.Get(name)
		l := dataset(b, name)
		sp := spec(b, l, d.WindowDays[0], d.SlidingOffsets[0], 48)
		mw := sp.Count / 8
		if mw < 6 {
			mw = 6
		}
		b.Run(name+"/streaming", func(b *testing.B) { runStreaming(b, l, sp, pool) })
		b.Run(name+"/postmortem", func(b *testing.B) {
			runPostmortem(b, l, sp, postmortemCfg(core.SpMM, core.Nested, sched.Auto, 2, mw), pool)
		})
	}
}

// BenchmarkFig12Suggested reproduces Figure 12: wiki-talk under the
// paper's suggested parameters across its (sw, delta) grid.
func BenchmarkFig12Suggested(b *testing.B) {
	pool := sched.NewPool(0)
	defer pool.Close()
	l := dataset(b, "wikitalk")
	for _, sw := range []int64{43200, 86400} {
		for _, deltaDays := range []float64{10, 90} {
			sp := spec(b, l, deltaDays, sw, 48)
			mw := sp.Count / 8
			if mw < 6 {
				mw = 6
			}
			b.Run(fmt.Sprintf("sw%d/delta%gd", sw, deltaDays), func(b *testing.B) {
				runPostmortem(b, l, sp, postmortemCfg(core.SpMM, core.Nested, sched.Auto, 2, mw), pool)
			})
		}
	}
}

// --- substrate microbenchmarks ---

// BenchmarkTemporalCSRBuild measures constructing the postmortem
// representation (the one-time cost the model amortizes).
func BenchmarkTemporalCSRBuild(b *testing.B) {
	l := dataset(b, "wikitalk")
	sp := spec(b, l, 90, 43200, 96)
	for _, mw := range []int{1, 6, 24} {
		b.Run(fmt.Sprintf("mw%d", mw), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tcsr.Build(l, sp, mw, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStreamingBatch measures the dynamic graph maintenance cost
// alone: sliding the full window sequence without PageRank.
func BenchmarkStreamingBatch(b *testing.B) {
	l := dataset(b, "wikitalk")
	sp := spec(b, l, 90, 43200, 96)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := streaming.NewGraph(l.NumVertices(), false)
		for w := 0; w < sp.Count; w++ {
			if w == 0 {
				for _, e := range l.Slice(sp.Start(0), sp.End(0)) {
					if _, err := g.InsertEvent(e.U, e.V); err != nil {
						b.Fatal(err)
					}
				}
				continue
			}
			depHi := sp.End(w - 1)
			if s := sp.Start(w) - 1; s < depHi {
				depHi = s
			}
			for _, e := range l.Slice(sp.Start(w-1), depHi) {
				if _, err := g.RemoveEvent(e.U, e.V); err != nil {
					b.Fatal(err)
				}
			}
			entLo := sp.Start(w)
			if s := sp.End(w-1) + 1; s > entLo {
				entLo = s
			}
			for _, e := range l.Slice(entLo, sp.End(w)) {
				if _, err := g.InsertEvent(e.U, e.V); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkSchedulerParallelFor measures the fork-join overhead of the
// TBB-equivalent scheduler at several grains.
func BenchmarkSchedulerParallelFor(b *testing.B) {
	pool := sched.NewPool(0)
	defer pool.Close()
	for _, grain := range []int{1, 64, 4096} {
		b.Run(fmt.Sprintf("grain%d", grain), func(b *testing.B) {
			var sink int64
			for i := 0; i < b.N; i++ {
				pool.ParallelFor(1<<16, grain, sched.Auto, func(_ *sched.Worker, lo, hi int) {
					s := int64(0)
					for j := lo; j < hi; j++ {
						s += int64(j)
					}
					sink += s
				})
			}
			_ = sink
		})
	}
}

// BenchmarkSpMMVectorLength measures the SpMM amortization as the
// number of simultaneously advanced windows grows (Sec. 4.4).
func BenchmarkSpMMVectorLength(b *testing.B) {
	pool := sched.NewPool(0)
	defer pool.Close()
	l := dataset(b, "wikitalk")
	sp := spec(b, l, 90, 43200, 64)
	for _, vl := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("veclen%d", vl), func(b *testing.B) {
			cfg := postmortemCfg(core.SpMM, core.AppLevel, sched.Auto, 64, 8)
			cfg.VectorLen = vl
			runPostmortem(b, l, sp, cfg, pool)
		})
	}
}

// BenchmarkExtComponents measures the postmortem connected-components
// kernel (one of Sec. 3.1's other analyses) over the window sequence.
func BenchmarkExtComponents(b *testing.B) {
	pool := sched.NewPool(0)
	defer pool.Close()
	l := dataset(b, "wikitalk")
	sp := spec(b, l, 90, 43200, 96)
	tg, err := tcsr.Build(l, sp, core.DefaultConfig().NumMultiWindows, false)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wcc.Run(tg, pool)
	}
}

// BenchmarkExtKCore measures the postmortem k-core kernel.
func BenchmarkExtKCore(b *testing.B) {
	pool := sched.NewPool(0)
	defer pool.Close()
	l := dataset(b, "wikitalk")
	sp := spec(b, l, 90, 43200, 96)
	tg, err := tcsr.Build(l, sp, core.DefaultConfig().NumMultiWindows, false)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kcore.Run(tg, pool)
	}
}

// BenchmarkAblationBalancedPartition compares uniform vs event-balanced
// multi-window partitioning on bursty data (the paper's future-work
// decomposition).
func BenchmarkAblationBalancedPartition(b *testing.B) {
	pool := sched.NewPool(0)
	defer pool.Close()
	l := dataset(b, "epinions")
	sp := spec(b, l, 60, 86400, 96)
	for _, balanced := range []bool{false, true} {
		label := "uniform"
		if balanced {
			label = "balanced"
		}
		b.Run(label, func(b *testing.B) {
			cfg := postmortemCfg(core.SpMM, core.Nested, sched.Auto, 2, 12)
			cfg.BalancedPartition = balanced
			runPostmortem(b, l, sp, cfg, pool)
		})
	}
}
