// Package offline implements the offline execution model of the paper
// (Sec. 3.3.1): every window graph is rebuilt independently from the
// event database and PageRank starts from scratch on it. The rebuild
// cost dominates, but the model is embarrassingly parallel across
// windows.
package offline

import (
	"time"

	"pmpr/internal/csr"
	"pmpr/internal/events"
	"pmpr/internal/pagerank"
	"pmpr/internal/sched"
)

// Config controls an offline run.
type Config struct {
	// Opts are the shared PageRank parameters.
	Opts pagerank.Options
	// DiscardRanks keeps only per-window statistics.
	DiscardRanks bool
}

// DefaultConfig returns the standard offline setup.
func DefaultConfig() Config {
	return Config{Opts: pagerank.Defaults()}
}

// The window-level loop runs on the pool with these settings.
const (
	windowPartitioner = sched.Auto
	windowGrain       = 1
)

// WindowStats describes one independently computed window.
type WindowStats struct {
	Window         int
	Iterations     int
	Converged      bool
	ActiveVertices int32
	Edges          int64
	// Elapsed is the wall time of this window (rebuild + solve); the
	// distribution across windows exposes the load imbalance the
	// paper's Sec. 6.1 attributes to the temporal edge distribution.
	Elapsed time.Duration
	// Ranks is the dense PageRank vector (nil when discarded).
	Ranks []float64
}

// Run computes PageRank for every window of the sequence. With a pool,
// windows are processed in parallel (each kernel runs serially — the
// model's parallelism is across windows, as on the paper's cloud
// scenario); with a nil pool everything is serial.
func Run(l *events.Log, spec events.WindowSpec, cfg Config, pool *sched.Pool) ([]WindowStats, error) {
	if err := cfg.Opts.Validate(); err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	out := make([]WindowStats, spec.Count)
	solve := func(w int) error {
		start := time.Now()
		// The per-window rebuild the offline model pays for: extract
		// the window's events and construct a fresh CSR.
		g, err := csr.FromLogWindow(l, spec.Start(w), spec.End(w))
		if err != nil {
			return err
		}
		res, err := pagerank.Run(g, nil, cfg.Opts)
		if err != nil {
			return err
		}
		st := WindowStats{
			Window:         w,
			Iterations:     res.Iterations,
			Converged:      res.Converged,
			ActiveVertices: res.ActiveVertices,
			Edges:          g.NumEdges(),
			Elapsed:        time.Since(start),
		}
		if !cfg.DiscardRanks {
			st.Ranks = res.Ranks
		}
		out[w] = st
		return nil
	}
	if pool == nil {
		for w := 0; w < spec.Count; w++ {
			if err := solve(w); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	errs := make([]error, spec.Count)
	pool.ParallelFor(spec.Count, windowGrain, windowPartitioner, func(_ *sched.Worker, lo, hi int) {
		for w := lo; w < hi; w++ {
			errs[w] = solve(w)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
