// Package core implements the paper's primary contribution: postmortem
// PageRank over a temporal graph (Sec. 4). An Engine owns a temporal
// CSR representation partitioned into multi-window graphs and computes
// the PageRank vector of every sliding window using
//
//   - partial initialization from the previous window (Sec. 4.2),
//   - window-level, application-level, or nested parallelism on a
//     work-stealing pool (Sec. 4.3), and
//   - one sparse matrix-vector kernel over the multi-window graph's
//     shared CSR, one window per sweep. The paper's SpMM kernel (Sec.
//     4.4) advances K windows per sweep; here a multi-window graph fits
//     in cache and width 1 is faster, so width K is not implemented
//     (EXPERIMENTS.md "Width K — deleted").
package core

import (
	"fmt"

	"pmpr/internal/obs"
	"pmpr/internal/pagerank"
	"pmpr/internal/sched"
)

// ParallelMode selects which level(s) of parallelism the engine uses
// (paper Sec. 4.3).
type ParallelMode int

const (
	// AppLevel processes windows one at a time, in order, and
	// parallelizes inside the PageRank kernel (over vertices).
	AppLevel ParallelMode = iota
	// WindowLevel parallelizes across time windows; each window's
	// kernel runs serially.
	WindowLevel
	// Nested runs windows in parallel and forks each kernel's vertex
	// loops on the same pool when the plan's units cannot fill it
	// (SolvePlan.ForkVertexLoops); with enough units it solves exactly
	// as WindowLevel does.
	Nested
)

// String names the mode the way the paper's figures do.
func (m ParallelMode) String() string {
	switch m {
	case AppLevel:
		return "app-level"
	case WindowLevel:
		return "window-level"
	case Nested:
		return "nested"
	default:
		return fmt.Sprintf("ParallelMode(%d)", int(m))
	}
}

// Config controls an Engine.
type Config struct {
	// Opts are the PageRank iteration parameters shared by all models.
	Opts pagerank.Options
	// NumMultiWindows is the number of multi-window graphs the window
	// sequence is partitioned into (paper default: 6).
	NumMultiWindows int
	// Mode is the parallelization level.
	Mode ParallelMode
	// PartialInit enables warm-starting a window from its predecessor
	// (Eq. 4). Disabled, every window starts from the uniform vector.
	PartialInit bool
	// Partitioner and Grain configure the scheduler's range splitting
	// for both the window loop and the vertex loops.
	Partitioner sched.Partitioner
	// Grain is the scheduler grain size (the figures' "WS granularity").
	Grain int
	// Directed keeps edge direction; when false the caller is expected
	// to have symmetrized the log.
	Directed bool
	// DiscardRanks drops each window's rank vector once its successor
	// has consumed it, keeping only the per-window statistics. Used by
	// benchmarks to avoid measuring result-retention memory traffic.
	DiscardRanks bool
	// Validate enables the structural invariant checks from
	// internal/invariant: the temporal CSR layout and window coverage
	// are validated when the engine is constructed, and every window's
	// rank vector is validated (stochasticity, non-negativity, active
	// count) after its solve. Validation is read-only and adds O(events
	// + windows*vertices) work, so it is meant for tests, fuzzing, and
	// debugging rather than benchmark runs.
	Validate bool
	// Journal receives the run's structured event stream: run and stage
	// lifecycle, per-window start/done with status and residuals,
	// fault-ladder transitions (retry, degrade, quarantine), and
	// checkpoint IO. nil (the default) disables emission entirely —
	// every emit site is a single nil check. Events fire only at
	// window, batch, and stage boundaries, never inside kernel
	// iteration loops, so the steady-state allocation guarantees hold
	// with a journal attached.
	Journal *obs.Journal
}

// DefaultConfig returns the default parameters: the paper's suggested
// auto partitioner with a small grain, nested parallelism, partial
// initialization and 6 multi-window graphs (Sec. 6.3.6). A pooled
// nested plan runs warm-start chains that fill the pool without
// forking the vertex loops.
func DefaultConfig() Config {
	return Config{
		Opts:            pagerank.Defaults(),
		NumMultiWindows: 6,
		Mode:            Nested,
		PartialInit:     true,
		Partitioner:     sched.Auto,
		Grain:           2,
	}
}

// Check verifies the configuration parameters are usable.
func (c Config) Check() error {
	if err := c.Opts.Validate(); err != nil {
		return err
	}
	if c.NumMultiWindows < 1 {
		return fmt.Errorf("core: NumMultiWindows %d must be >= 1", c.NumMultiWindows)
	}
	if c.Mode < AppLevel || c.Mode > Nested {
		return fmt.Errorf("core: unknown parallel mode %d", int(c.Mode))
	}
	if c.Grain < 0 {
		return fmt.Errorf("core: Grain %d must be >= 0", c.Grain)
	}
	return nil
}

// ConfigInfo is the JSON-friendly rendering of a Config, stamped into
// RunReport and trace metadata so results are attributable to the
// parameters that produced them.
type ConfigInfo struct {
	Mode            string  `json:"mode"`
	Partitioner     string  `json:"partitioner"`
	Grain           int     `json:"grain"`
	NumMultiWindows int     `json:"num_multi_windows"`
	PartialInit     bool    `json:"partial_init"`
	Directed        bool    `json:"directed"`
	DiscardRanks    bool    `json:"discard_ranks"`
	Validate        bool    `json:"validate,omitempty"`
	Alpha           float64 `json:"alpha"`
	Tol             float64 `json:"tol"`
	MaxIter         int     `json:"max_iter"`
}

// Info summarizes the configuration for reports and trace metadata.
func (c Config) Info() ConfigInfo {
	return ConfigInfo{
		Mode:            c.Mode.String(),
		Partitioner:     c.Partitioner.String(),
		Grain:           c.Grain,
		NumMultiWindows: c.NumMultiWindows,
		PartialInit:     c.PartialInit,
		Directed:        c.Directed,
		DiscardRanks:    c.DiscardRanks,
		Validate:        c.Validate,
		Alpha:           c.Opts.Alpha,
		Tol:             c.Opts.Tol,
		MaxIter:         c.Opts.MaxIter,
	}
}

func (c Config) grain() int {
	if c.Grain < 1 {
		return 1
	}
	return c.Grain
}
