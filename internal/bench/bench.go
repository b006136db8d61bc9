// Package bench is the harness that regenerates every table and figure
// of the paper's evaluation (Sec. 5-6) on the synthetic datasets. Each
// experiment prints the same rows/series the paper reports; absolute
// numbers differ from the authors' 48-core testbed, but the shapes
// (which model wins, rough factors, crossovers) are the reproduction
// target. See EXPERIMENTS.md for measured-vs-paper notes.
package bench

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"pmpr/internal/core"
	"pmpr/internal/events"
	"pmpr/internal/gen"
	"pmpr/internal/offline"
	"pmpr/internal/sched"
	"pmpr/internal/streaming"
)

// Options configure a harness run.
type Options struct {
	// Out receives the rendered tables.
	Out io.Writer
	// Scale multiplies the synthetic dataset sizes (1.0 = the profiles'
	// base sizes; the default harness scale is 0.2).
	Scale float64
	// Seed drives dataset generation.
	Seed int64
	// Workers sizes the scheduler pool (0 = GOMAXPROCS).
	Workers int
	// Quick trims the parameter sweeps so the full suite finishes in
	// seconds (used by tests and -quick).
	Quick bool
	// MaxWindows caps the number of windows per derived spec so the
	// streaming baseline stays tractable at small scale; 0 means the
	// harness default (96 quick / 384 full).
	MaxWindows int
}

// Defaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 0.2
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxWindows == 0 {
		if o.Quick {
			o.MaxWindows = 96
		} else {
			o.MaxWindows = 384
		}
	}
	return o
}

// Experiment is one reproducible table/figure.
type Experiment struct {
	// ID is the experiment key ("fig5", "table1", "ablation-imbalance"...).
	ID string
	// Title describes what the paper reports there.
	Title string
	// Run executes the experiment and renders its output. The context
	// cancels the experiment's engine runs mid-solve (Ctrl-C on
	// pmbench); experiments abort at the next window/batch boundary.
	Run func(ctx context.Context, o Options) error
}

var registry []Experiment

func register(id, title string, run func(ctx context.Context, o Options) error) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: run})
}

// Experiments lists all registered experiments in registration order.
func Experiments() []Experiment { return registry }

// Get returns the experiment with the given id.
func Get(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll executes every experiment, stopping early when ctx cancels.
func RunAll(ctx context.Context, o Options) error {
	for _, e := range registry {
		if err := ctx.Err(); err != nil {
			return err
		}
		fmt.Fprintf(o.Out, "\n=== %s: %s ===\n", e.ID, e.Title)
		if err := e.Run(ctx, o); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	return nil
}

// loadDataset generates a profile's log, symmetrized (the paper's
// representation, Fig. 3, stores both directions).
func loadDataset(name string, o Options) (*events.Log, gen.Dataset, error) {
	d, ok := gen.Get(name)
	if !ok {
		return nil, gen.Dataset{}, fmt.Errorf("bench: unknown dataset %q (have %v)", name, gen.Names())
	}
	l, err := d.Generate(o.Scale, o.Seed+int64(len(name)))
	if err != nil {
		return nil, gen.Dataset{}, err
	}
	return l.Symmetrize(), d, nil
}

// deriveSpec builds the window spec for (sw, deltaDays) over the log.
// The paper's parameters produce thousands of windows on the full-size
// datasets; at harness scale we bound the count at o.MaxWindows while
// preserving the property the experiments depend on — the overlap ratio
// delta/sw — by scaling BOTH parameters up by the same factor. The
// window size is capped at half the dataset span (beyond that every
// window is "the whole dataset" and the sweep is meaningless); if the
// cap binds, the window count is truncated instead.
func deriveSpec(l *events.Log, slideSeconds int64, deltaDays float64, o Options) (events.WindowSpec, error) {
	delta := int64(deltaDays * float64(gen.Day))
	slide := slideSeconds
	first, last, ok := l.TimeRange()
	if !ok {
		return events.WindowSpec{}, fmt.Errorf("bench: empty log")
	}
	span := last - first
	natural := span/slide + 1
	if natural > int64(o.MaxWindows) {
		f := float64(natural) / float64(o.MaxWindows)
		if maxF := float64(span/2) / float64(delta); f > maxF {
			f = maxF
		}
		if f > 1 {
			slide = int64(float64(slide) * f)
			delta = int64(float64(delta) * f)
		}
	}
	spec, err := events.Span(l, delta, slide)
	if err != nil {
		return events.WindowSpec{}, err
	}
	if spec.Count > o.MaxWindows {
		// Truncation binds (the window-size cap prevented full scaling):
		// place the covered range over the densest part of the dataset,
		// so spiky profiles keep their spike in view.
		spec.Count = o.MaxWindows
		covered := int64(spec.Count-1)*spec.Slide + spec.Delta
		if covered < span {
			best, bestCount := first, -1
			step := (span - covered) / 16
			if step < 1 {
				step = 1
			}
			for start := first; start+covered <= last; start += step {
				if c := l.CountInRange(start, start+covered); c > bestCount {
					best, bestCount = start, c
				}
			}
			spec.T0 = best
		}
	}
	return spec, nil
}

// deriveOverlapSpec keeps the paper's sliding offset exactly (the
// overlap between consecutive windows is the quantity under test, e.g.
// for partial initialization) and truncates the window count instead.
func deriveOverlapSpec(l *events.Log, slideSeconds int64, deltaDays float64, o Options) (events.WindowSpec, error) {
	spec, err := events.Span(l, int64(deltaDays*float64(gen.Day)), slideSeconds)
	if err != nil {
		return events.WindowSpec{}, err
	}
	if spec.Count > o.MaxWindows {
		spec.Count = o.MaxWindows
	}
	return spec, nil
}

// spanWindows derives a spec with exactly count windows tiling the
// whole dataset at the given window size.
func spanWindows(l *events.Log, deltaDays float64, count int) (events.WindowSpec, error) {
	first, last, ok := l.TimeRange()
	if !ok {
		return events.WindowSpec{}, fmt.Errorf("bench: empty log")
	}
	slide := (last - first) / int64(count)
	if slide < 1 {
		slide = 1
	}
	spec, err := events.Span(l, int64(deltaDays*float64(gen.Day)), slide)
	if err != nil {
		return events.WindowSpec{}, err
	}
	if spec.Count > count {
		spec.Count = count
	}
	return spec, nil
}

// timeIt measures fn. Each experiment measures once per configuration;
// the kernels are long enough (many windows x many iterations) that
// single-shot timing is stable at the "shape" resolution we target.
func timeIt(fn func() error) (float64, error) {
	start := time.Now()
	err := fn()
	return time.Since(start).Seconds(), err
}

// runPostmortem builds (or reuses) an engine and times Run.
func runPostmortem(ctx context.Context, l *events.Log, spec events.WindowSpec, cfg core.Config, pool *sched.Pool) (float64, *core.Series, error) {
	cfg.Directed = false
	cfg.DiscardRanks = true
	eng, err := core.NewEngine(l, spec, cfg, pool)
	if err != nil {
		return 0, nil, err
	}
	return runPostmortemReusing(ctx, eng)
}

// runPostmortemReusing times Run on a prebuilt representation.
func runPostmortemReusing(ctx context.Context, eng *core.Engine) (float64, *core.Series, error) {
	var s *core.Series
	secs, err := timeIt(func() error {
		var err error
		s, err = eng.Run(ctx)
		return err
	})
	return secs, s, err
}

// runStreaming times the streaming model (window sequence is inherently
// serial; the kernel uses the pool).
func runStreaming(l *events.Log, spec events.WindowSpec, pool *sched.Pool) (float64, error) {
	cfg := streaming.DefaultConfig()
	cfg.DiscardRanks = true
	r, err := streaming.NewRunner(l, spec, cfg, pool)
	if err != nil {
		return 0, err
	}
	return timeIt(func() error {
		_, err := r.Run()
		return err
	})
}

// runOffline times the offline model (parallel across windows).
func runOffline(l *events.Log, spec events.WindowSpec, pool *sched.Pool) (float64, error) {
	cfg := offline.DefaultConfig()
	cfg.DiscardRanks = true
	return timeIt(func() error {
		_, err := offline.Run(l, spec, cfg, pool)
		return err
	})
}

// barebonePostmortem is the untuned configuration of Sec. 6.2:
// application-level parallelism, static scheduling, partial
// initialization, 6 multi-window graphs.
func barebonePostmortem() core.Config {
	cfg := core.DefaultConfig()
	cfg.Mode = core.AppLevel
	cfg.Partitioner = sched.Static
	cfg.Grain = 64
	cfg.PartialInit = true
	cfg.NumMultiWindows = 6
	return cfg
}

// suggestedConfig is core.DefaultConfig with the number of multi-window
// graphs fitted to spec. The default follows the paper's parameter
// guidance (Sec. 6.3.6: auto partitioner with grain under 4, nested
// parallelism), solving one window per sweep. The number of
// multi-window graphs is chosen so each one spans about two window
// lengths of time — "large enough" per Fig. 8 (a window's sweep then
// touches at most ~2x its own events) without wasting memory on
// replication.
func suggestedConfig(spec events.WindowSpec) core.Config {
	cfg := core.DefaultConfig()
	numMW := int(int64(spec.Count) * spec.Slide / (spec.Delta + 1))
	if numMW < 6 {
		numMW = 6
	}
	if numMW > spec.Count {
		numMW = spec.Count
	}
	cfg.NumMultiWindows = numMW
	return cfg
}

// grainSweep returns the granularity axis of Figs. 7-10.
func grainSweep(quick bool) []int {
	if quick {
		return []int{1, 16, 256}
	}
	return []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048}
}

func secondsLabel(sw int64) string { return fmt.Sprintf("%d", sw) }

func daysLabel(d float64) string { return fmt.Sprintf("%g", d) }
