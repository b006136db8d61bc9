package bench

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"pmpr/internal/analysis"
	"pmpr/internal/core"
	"pmpr/internal/gen"
	"pmpr/internal/kcore"
	"pmpr/internal/offline"
	"pmpr/internal/sched"
	"pmpr/internal/tcsr"
	"pmpr/internal/wcc"
)

func init() {
	register("table1", "Graphs and parameters (Table 1)", expTable1)
	register("fig4", "Temporal edge distribution over time (Figure 4)", expFig4)
	register("fig5", "Offline vs Streaming vs Postmortem (Figure 5)", expFig5)
	register("fig6", "Impact of partial initialization (Figure 6)", expFig6)
	register("fig7", "Partitioner/level/kernel vs granularity, ~256 windows (Figure 7)", makeGrainFigure(256, 90))
	register("fig8", "Impact of the number of multi-window graphs (Figure 8)", expFig8)
	register("fig9", "Same sweep with only 6 windows (Figure 9)", makeGrainFigure(6, 90))
	register("fig10", "Same sweep with ~1024 windows (Figure 10)", makeGrainFigure(1024, 90))
	register("fig11", "Best postmortem speedup over streaming (Figure 11)", expFig11)
	register("fig12", "Suggested parameters on wiki-talk (Figure 12)", expFig12)
	register("ablation-veclen", "SpMM vector length x partial initialization", expAblationVecLen)
	register("ablation-replication", "Multi-window replication overhead vs count", expAblationReplication)
	register("ablation-imbalance", "Parallelization level under spiky vs smooth load", expAblationImbalance)
	register("ext-kernels", "Other sliding-window kernels: components and k-core", expExtKernels)
	register("profile-imbalance", "Per-window work distribution per dataset (Sec. 6.1)", expProfileImbalance)
}

func expTable1(ctx context.Context, o Options) error {
	o = o.withDefaults()
	t := NewTable("name", "events", "events(x2 sym)", "vertices", "span(days)", "sliding offsets(s)", "window sizes(days)")
	for _, name := range gen.Names() {
		l, d, err := loadDataset(name, o)
		if err != nil {
			return err
		}
		t.Rowf(name, l.Len()/2, l.Len(), l.NumVertices(), d.SpanDays,
			fmt.Sprintf("%v", d.SlidingOffsets), fmt.Sprintf("%v", d.WindowDays))
	}
	t.Render(o.Out)
	fmt.Fprintf(o.Out, "(synthetic stand-ins at scale %.2g; see DESIGN.md \"Substitutions\")\n", o.Scale)
	return nil
}

func expFig4(ctx context.Context, o Options) error {
	o = o.withDefaults()
	bins := 60
	for _, name := range gen.Names() {
		l, _, err := loadDataset(name, o)
		if err != nil {
			return err
		}
		counts, width, _ := analysis.Histogram(l, bins)
		var peak int64
		for _, c := range counts {
			if c > peak {
				peak = c
			}
		}
		fmt.Fprintf(o.Out, "%-14s |%s| peak=%d/bin bin=%.1fd\n",
			name, Sparkline(counts), peak, float64(width)/float64(gen.Day))
	}
	return nil
}

func expFig5(ctx context.Context, o Options) error {
	o = o.withDefaults()
	cases := []struct {
		dataset string
		slide   int64
		deltas  []float64
	}{
		{"enron", 172800, []float64{730, 1460}},
		{"youtube", 86400, []float64{60, 90}},
		{"epinions", 86400, []float64{60, 90}},
		{"wikitalk", 259200, []float64{10, 15, 90, 180}},
	}
	if o.Quick {
		cases = cases[:2]
	}
	pool := sched.NewPool(o.Workers)
	defer pool.Close()
	t := NewTable("dataset", "sw(s)", "delta(d)", "windows", "offline(s)", "streaming(s)", "post-bare(s)", "post-tuned(s)", "stream/tuned", "off/tuned")
	for _, c := range cases {
		l, _, err := loadDataset(c.dataset, o)
		if err != nil {
			return err
		}
		deltas := c.deltas
		if o.Quick && len(deltas) > 2 {
			deltas = deltas[:2]
		}
		for _, d := range deltas {
			spec, err := deriveSpec(l, c.slide, d, o)
			if err != nil {
				return err
			}
			offT, err := runOffline(l, spec, pool)
			if err != nil {
				return err
			}
			strT, err := runStreaming(l, spec, pool)
			if err != nil {
				return err
			}
			postT, _, err := runPostmortem(ctx, l, spec, barebonePostmortem(), pool)
			if err != nil {
				return err
			}
			tunedT, _, err := runPostmortem(ctx, l, spec, suggestedConfig(spec), pool)
			if err != nil {
				return err
			}
			t.Rowf(c.dataset, c.slide, d, spec.Count, offT, strT, postT, tunedT, strT/tunedT, offT/tunedT)
		}
	}
	t.Render(o.Out)
	return nil
}

func expFig6(ctx context.Context, o Options) error {
	o = o.withDefaults()
	datasets := []string{"stackoverflow", "wikitalk"}
	deltas := []float64{10, 15, 90, 180}
	if o.Quick {
		datasets = datasets[1:]
		deltas = []float64{10, 90}
	}
	pool := sched.NewPool(o.Workers)
	defer pool.Close()
	t := NewTable("dataset", "delta(d)", "windows", "full(s)", "partial(s)", "speedup", "full iters", "partial iters")
	for _, name := range datasets {
		l, _, err := loadDataset(name, o)
		if err != nil {
			return err
		}
		for _, d := range deltas {
			spec, err := deriveOverlapSpec(l, 43200, d, o)
			if err != nil {
				return err
			}
			cfg := barebonePostmortem()
			cfg.PartialInit = false
			fullT, fullS, err := runPostmortem(ctx, l, spec, cfg, pool)
			if err != nil {
				return err
			}
			cfg.PartialInit = true
			partT, partS, err := runPostmortem(ctx, l, spec, cfg, pool)
			if err != nil {
				return err
			}
			t.Rowf(name, d, spec.Count, fullT, partT, fullT/partT,
				fullS.TotalIterations(), partS.TotalIterations())
		}
	}
	t.Render(o.Out)
	return nil
}

// makeGrainFigure builds the Figs. 7/9/10 sweep: speedup over streaming
// as a function of the scheduler grain, for every partitioner x
// parallelization level x kernel, at a fixed number of windows.
func makeGrainFigure(windows int, deltaDays float64) func(ctx context.Context, o Options) error {
	return func(ctx context.Context, o Options) error {
		o = o.withDefaults()
		if windows > o.MaxWindows {
			windows = o.MaxWindows
		}
		l, _, err := loadDataset("wikitalk", o)
		if err != nil {
			return err
		}
		spec, err := spanWindows(l, deltaDays, windows)
		if err != nil {
			return err
		}
		pool := sched.NewPool(o.Workers)
		defer pool.Close()
		strT, err := runStreaming(l, spec, pool)
		if err != nil {
			return err
		}
		fmt.Fprintf(o.Out, "wikitalk, sw=%ds delta=%gd windows=%d (tiling the span); streaming baseline %.3gs\n",
			spec.Slide, deltaDays, spec.Count, strT)

		numMW := windows / 8
		if numMW < 6 {
			numMW = 6
		}
		if numMW > windows {
			numMW = windows
		}
		// Build both representations once and reuse across the sweep.
		tg, err := tcsr.Build(l, spec, numMW, false)
		if err != nil {
			return err
		}
		parts := []sched.Partitioner{sched.Auto, sched.Simple, sched.Static}
		modes := []core.ParallelMode{core.Nested, core.AppLevel, core.WindowLevel}
		kernels := []core.KernelID{core.SpMM, core.SpMV}
		grains := grainSweep(o.Quick)
		for _, part := range parts {
			t := NewTable(append([]string{"config (" + part.String() + ")"}, func() []string {
				var h []string
				for _, g := range grains {
					h = append(h, fmt.Sprintf("g=%d", g))
				}
				return h
			}()...)...)
			for _, mode := range modes {
				for _, kernel := range kernels {
					row := []string{mode.String() + "/" + kernel.String()}
					for _, g := range grains {
						cfg := core.DefaultConfig()
						cfg.Kernel = kernel
						cfg.Mode = mode
						cfg.Partitioner = part
						cfg.Grain = g
						cfg.VectorLen = 16
						cfg.DiscardRanks = true
						cfg.Directed = false
						eng, err := core.NewEngineFromTemporal(tg, cfg, pool)
						if err != nil {
							return err
						}
						secs, _, err := runPostmortemReusing(ctx, eng)
						if err != nil {
							return err
						}
						row = append(row, fmt.Sprintf("%.1f", strT/secs))
					}
					t.Row(row...)
				}
			}
			t.Render(o.Out)
			fmt.Fprintln(o.Out)
		}
		return nil
	}
}

func expFig8(ctx context.Context, o Options) error {
	o = o.withDefaults()
	windows := 256
	if windows > o.MaxWindows {
		windows = o.MaxWindows
	}
	l, _, err := loadDataset("wikitalk", o)
	if err != nil {
		return err
	}
	spec, err := spanWindows(l, 90, windows)
	if err != nil {
		return err
	}
	pool := sched.NewPool(o.Workers)
	defer pool.Close()
	strT, err := runStreaming(l, spec, pool)
	if err != nil {
		return err
	}
	mwCounts := []int{1, 6, 32, 256, 512, 1024}
	grains := []int{1, 8, 64}
	if o.Quick {
		mwCounts = []int{6, 32, 256}
		grains = []int{1, 64}
	}
	fmt.Fprintf(o.Out, "wikitalk, sw=%ds delta=90d windows=%d (tiling the span); streaming baseline %.3gs\n", spec.Slide, spec.Count, strT)
	for _, mode := range []core.ParallelMode{core.AppLevel, core.WindowLevel, core.Nested} {
		t := NewTable(append([]string{"multi-windows (" + mode.String() + ")"}, func() []string {
			var h []string
			for _, g := range grains {
				h = append(h, fmt.Sprintf("g=%d", g))
			}
			return h
		}()...)...)
		for _, mw := range mwCounts {
			row := []string{fmt.Sprintf("%d", mw)}
			cfg := core.DefaultConfig()
			cfg.Kernel = core.SpMM
			cfg.VectorLen = 16
			cfg.Mode = mode
			cfg.NumMultiWindows = mw
			cfg.DiscardRanks = true
			for _, g := range grains {
				cfg.Grain = g
				secs, _, err := runPostmortem(ctx, l, spec, cfg, pool)
				if err != nil {
					return err
				}
				row = append(row, fmt.Sprintf("%.1f", strT/secs))
			}
			t.Row(row...)
		}
		t.Render(o.Out)
		fmt.Fprintln(o.Out)
	}
	return nil
}

func expFig11(ctx context.Context, o Options) error {
	o = o.withDefaults()
	names := gen.Names()
	if o.Quick {
		names = []string{"enron", "wikitalk"}
	}
	pool := sched.NewPool(o.Workers)
	defer pool.Close()
	var best, worst float64 = math.Inf(1), 0
	for _, name := range names {
		l, d, err := loadDataset(name, o)
		if err != nil {
			return err
		}
		offsets := d.SlidingOffsets
		days := d.WindowDays
		if o.Quick {
			offsets = offsets[:1]
			if len(days) > 2 {
				days = days[:2]
			}
		} else if len(days) > 4 {
			days = days[len(days)-4:]
		}
		h := NewHeatmap("delta(d)", "sw(s)")
		for _, sw := range offsets {
			for _, dd := range days {
				spec, err := deriveSpec(l, sw, dd, o)
				if err != nil {
					return err
				}
				strT, err := runStreaming(l, spec, pool)
				if err != nil {
					return err
				}
				// Best over the candidate configurations (the paper
				// reports the best configuration per cell).
				candidates := []core.Config{
					suggestedConfig(spec),
					barebonePostmortem(),
					func() core.Config {
						c := suggestedConfig(spec)
						c.Mode = core.WindowLevel
						return c
					}(),
				}
				bestT := math.Inf(1)
				for _, cfg := range candidates {
					secs, _, err := runPostmortem(ctx, l, spec, cfg, pool)
					if err != nil {
						return err
					}
					if secs < bestT {
						bestT = secs
					}
				}
				sp := strT / bestT
				h.Set(daysLabel(dd), secondsLabel(sw), sp)
				if sp < best {
					best = sp
				}
				if sp > worst {
					worst = sp
				}
			}
		}
		fmt.Fprintf(o.Out, "%s (best postmortem speedup over streaming):\n", name)
		h.Render(o.Out)
		fmt.Fprintln(o.Out)
	}
	fmt.Fprintf(o.Out, "speedup range across all cells: %.0fx .. %.0fx (paper: 50x .. 880x on 48 cores)\n", best, worst)
	return nil
}

func expFig12(ctx context.Context, o Options) error {
	o = o.withDefaults()
	l, d, err := loadDataset("wikitalk", o)
	if err != nil {
		return err
	}
	offsets := d.SlidingOffsets
	days := d.WindowDays
	if o.Quick {
		offsets = offsets[:2]
		days = days[:2]
	}
	pool := sched.NewPool(o.Workers)
	defer pool.Close()
	h := NewHeatmap("delta(d)", "sw(s)")
	for _, sw := range offsets {
		for _, dd := range days {
			spec, err := deriveSpec(l, sw, dd, o)
			if err != nil {
				return err
			}
			strT, err := runStreaming(l, spec, pool)
			if err != nil {
				return err
			}
			secs, _, err := runPostmortem(ctx, l, spec, suggestedConfig(spec), pool)
			if err != nil {
				return err
			}
			h.Set(daysLabel(dd), secondsLabel(sw), strT/secs)
		}
	}
	fmt.Fprintln(o.Out, "wiki-talk with the suggested parameters (speedup over streaming):")
	h.Render(o.Out)
	return nil
}

func expAblationVecLen(ctx context.Context, o Options) error {
	o = o.withDefaults()
	l, _, err := loadDataset("wikitalk", o)
	if err != nil {
		return err
	}
	windows := 128
	if windows > o.MaxWindows {
		windows = o.MaxWindows
	}
	spec, err := spanWindows(l, 90, windows)
	if err != nil {
		return err
	}
	pool := sched.NewPool(o.Workers)
	defer pool.Close()
	lens := []int{1, 2, 4, 8, 16, 32}
	if o.Quick {
		lens = []int{1, 8, 16}
	}
	t := NewTable("veclen", "partial", "time(s)", "total iters")
	for _, vl := range lens {
		for _, partial := range []bool{true, false} {
			cfg := suggestedConfig(spec)
			cfg.Kernel = core.SpMM
			cfg.VectorLen = vl
			cfg.PartialInit = partial
			secs, s, err := runPostmortem(ctx, l, spec, cfg, pool)
			if err != nil {
				return err
			}
			t.Rowf(vl, fmt.Sprintf("%v", partial), secs, s.TotalIterations())
		}
	}
	t.Render(o.Out)
	fmt.Fprintln(o.Out, "(higher vector length reduces sweeps but the first batch of each region pays full init)")
	return nil
}

func expAblationReplication(ctx context.Context, o Options) error {
	o = o.withDefaults()
	l, _, err := loadDataset("wikitalk", o)
	if err != nil {
		return err
	}
	windows := 256
	if windows > o.MaxWindows {
		windows = o.MaxWindows
	}
	spec, err := spanWindows(l, 90, windows)
	if err != nil {
		return err
	}
	counts := []int{1, 2, 6, 16, 64, 256}
	if o.Quick {
		counts = []int{1, 6, 64}
	}
	t := NewTable("multi-windows", "stored events", "replication", "memory(MB)", "build(s)")
	for _, c := range counts {
		if c > spec.Count {
			continue
		}
		var tg *tcsr.Temporal
		secs, err := timeIt(func() error {
			var err error
			tg, err = tcsr.Build(l, spec, c, false)
			return err
		})
		if err != nil {
			return err
		}
		t.Rowf(c, tg.TotalStoredEvents(),
			float64(tg.TotalStoredEvents())/float64(l.Len()),
			float64(tg.MemoryBytes())/(1<<20), secs)
	}
	t.Render(o.Out)
	return nil
}

func expAblationImbalance(ctx context.Context, o Options) error {
	o = o.withDefaults()
	pool := sched.NewPool(o.Workers)
	defer pool.Close()
	t := NewTable("dataset", "mode", "time(s)", "speedup vs app-level")
	for _, name := range []string{"epinions", "wikitalk"} { // spiky vs smooth (Sec. 6.1)
		l, d, err := loadDataset(name, o)
		if err != nil {
			return err
		}
		spec, err := deriveSpec(l, d.SlidingOffsets[0], d.WindowDays[0], o)
		if err != nil {
			return err
		}
		var appT float64
		for _, mode := range []core.ParallelMode{core.AppLevel, core.WindowLevel, core.Nested} {
			cfg := suggestedConfig(spec)
			cfg.Mode = mode
			secs, _, err := runPostmortem(ctx, l, spec, cfg, pool)
			if err != nil {
				return err
			}
			if mode == core.AppLevel {
				appT = secs
			}
			t.Rowf(name, mode.String(), secs, appT/secs)
		}
	}
	t.Render(o.Out)
	fmt.Fprintln(o.Out, "(spiky datasets favor app-level/nested; smooth many-window datasets tolerate window-level)")
	return nil
}

func expExtKernels(ctx context.Context, o Options) error {
	o = o.withDefaults()
	pool := sched.NewPool(o.Workers)
	defer pool.Close()
	t := NewTable("dataset", "windows", "pagerank(s)", "components(s)", "kcore(s)")
	names := []string{"wikitalk", "stackoverflow"}
	if o.Quick {
		names = names[:1]
	}
	for _, name := range names {
		l, d, err := loadDataset(name, o)
		if err != nil {
			return err
		}
		spec, err := deriveSpec(l, d.SlidingOffsets[len(d.SlidingOffsets)-1], d.WindowDays[len(d.WindowDays)-1], o)
		if err != nil {
			return err
		}
		prT, _, err := runPostmortem(ctx, l, spec, suggestedConfig(spec), pool)
		if err != nil {
			return err
		}
		// Both kernels share one representation, built with the PageRank
		// engine's default multi-window count.
		tg, err := tcsr.Build(l, spec, core.DefaultConfig().NumMultiWindows, false)
		if err != nil {
			return err
		}
		start := time.Now()
		wcc.Run(tg, pool)
		wT := time.Since(start).Seconds()
		start = time.Now()
		kcore.Run(tg, pool)
		kT := time.Since(start).Seconds()
		t.Rowf(name, spec.Count, prT, wT, kT)
	}
	t.Render(o.Out)
	fmt.Fprintln(o.Out, "(components and k-core reuse the temporal CSR; Sec. 3.1's other kernels)")
	return nil
}

func expProfileImbalance(ctx context.Context, o Options) error {
	o = o.withDefaults()
	pool := sched.NewPool(o.Workers)
	defer pool.Close()
	t := NewTable("dataset", "windows", "max/mean window time", "top window share", "gini-ish")
	for _, name := range gen.Names() {
		l, d, err := loadDataset(name, o)
		if err != nil {
			return err
		}
		spec, err := deriveSpec(l, d.SlidingOffsets[0], d.WindowDays[0], o)
		if err != nil {
			return err
		}
		cfg := offline.DefaultConfig()
		cfg.DiscardRanks = true
		stats, err := offline.Run(l, spec, cfg, nil)
		if err != nil {
			return err
		}
		var total, maxT float64
		times := make([]float64, len(stats))
		for i, st := range stats {
			times[i] = st.Elapsed.Seconds()
			total += times[i]
			if times[i] > maxT {
				maxT = times[i]
			}
		}
		mean := total / float64(len(stats))
		// Share of total work carried by the heaviest 10% of windows.
		sorted := append([]float64(nil), times...)
		sort.Float64s(sorted)
		topN := len(sorted) / 10
		if topN < 1 {
			topN = 1
		}
		var topSum float64
		for _, v := range sorted[len(sorted)-topN:] {
			topSum += v
		}
		// Mean absolute deviation relative to mean, a cheap dispersion
		// measure in [0, 2).
		var mad float64
		for _, v := range times {
			if v > mean {
				mad += v - mean
			} else {
				mad += mean - v
			}
		}
		mad /= total
		t.Rowf(name, spec.Count, maxT/mean, topSum/total, mad)
	}
	t.Render(o.Out)
	fmt.Fprintln(o.Out, "(spiky temporal distributions concentrate the PageRank work in few windows — Sec. 6.1)")
	return nil
}
