package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"pmpr/internal/checkpoint"
	"pmpr/internal/events"
	"pmpr/internal/invariant"
	"pmpr/internal/sched"
	"pmpr/internal/tcsr"
)

// Engine computes the postmortem PageRank series of a temporal graph.
// It is a thin orchestrator over the staged pipeline: the build and
// plan stages run once at construction and are cached (build once,
// solve many), Run executes the solve stage under the caller's
// context, and the publish stage assembles the Series. Callers that
// need finer control — re-planning with a different configuration
// against the same representation, solving without a report — can
// drive the stage values (BuildStage, PlanStage, SolveStage,
// PublishStage) directly.
type Engine struct {
	build BuildOutput
	plan  *SolvePlan
	solve *SolveStage

	// running guards against overlapping Run calls: the solve stage's
	// arena is single-run state.
	running atomic.Bool
}

// newEngine plans cfg against a built representation and assembles the
// cached pipeline.
func newEngine(build BuildOutput, cfg Config, pool *sched.Pool) (*Engine, error) {
	workers := 0
	if pool != nil {
		workers = pool.NumWorkers()
	}
	plan, err := (PlanStage{}).Run(PlanInput{Temporal: build.Temporal, Cfg: cfg, Workers: workers})
	if err != nil {
		return nil, err
	}
	return &Engine{build: build, plan: plan, solve: NewSolveStage(pool)}, nil
}

// NewEngine builds the postmortem representation of l under spec and
// returns an engine. pool may be nil, in which case every mode degrades
// to a fully serial execution (useful for tests and baselines).
func NewEngine(l *events.Log, spec events.WindowSpec, cfg Config, pool *sched.Pool) (*Engine, error) {
	build, err := (BuildStage{}).Run(BuildInput{Log: l, Spec: spec, Cfg: cfg})
	if err != nil {
		return nil, err
	}
	return newEngine(build, cfg, pool)
}

// NewEngineFromTemporal wraps an existing representation, so that
// several configurations (mode, grain, partial init, ...) can be
// benchmarked without rebuilding the temporal CSR. cfg.NumMultiWindows
// is ignored; the partitioning of tg is used. cfg.Directed must match
// the build.
func NewEngineFromTemporal(tg *tcsr.Temporal, cfg Config, pool *sched.Pool) (*Engine, error) {
	if err := cfg.Check(); err != nil {
		return nil, err
	}
	if tg == nil {
		return nil, errors.New("core: nil temporal representation")
	}
	if cfg.Directed != tg.Directed {
		return nil, fmt.Errorf("core: config direction (%v) disagrees with representation (%v)",
			cfg.Directed, tg.Directed)
	}
	if cfg.Validate {
		// The originating log is not available here; coverage is only
		// checkable through NewEngine.
		if err := invariant.CheckTemporal(tg); err != nil {
			return nil, err
		}
	}
	return newEngine(BuildOutput{Temporal: tg}, cfg, pool)
}

// ScratchStats snapshots the scratch arena's buffer-reuse counters.
// After a warm-up Run with Config.DiscardRanks the miss delta across
// further Run calls is zero once every workspace has served the
// largest unit (from the second Run on for a serial engine): the
// steady state allocates nothing.
func (e *Engine) ScratchStats() ScratchStats { return e.solve.ScratchStats() }

// Temporal exposes the underlying representation.
func (e *Engine) Temporal() *tcsr.Temporal { return e.plan.Temporal }

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.plan.Cfg }

// Plan exposes the cached solve plan (unit layout, forking). The plan
// is immutable; re-plan by constructing a new engine or driving
// PlanStage directly.
func (e *Engine) Plan() *SolvePlan { return e.plan }

// Manifest renders the engine's run identity for checkpointing: the
// window spec, partitioning, iteration options, and input shape. Two
// engines may share a checkpoint directory iff their manifests are
// equal.
func (e *Engine) Manifest() checkpoint.Manifest {
	t := e.plan.Temporal
	cfg := &e.plan.Cfg
	bounds := make([]int, 0, len(t.MWs)*2)
	for _, mw := range t.MWs {
		bounds = append(bounds, mw.WinLo, mw.WinHi)
	}
	return checkpoint.Manifest{
		SpecT0:          t.Spec.T0,
		SpecDelta:       t.Spec.Delta,
		SpecSlide:       t.Spec.Slide,
		SpecCount:       t.Spec.Count,
		NumMultiWindows: len(t.MWs),
		PartitionHash:   checkpoint.HashPartition(bounds),
		NumVertices:     t.NumVertices(),
		Directed:        t.Directed,
		PartialInit:     cfg.PartialInit,
		Alpha:           cfg.Opts.Alpha,
		Tol:             cfg.Opts.Tol,
		MaxIter:         cfg.Opts.MaxIter,
	}
}

// SetCheckpoint enables checkpointing on store for every subsequent
// Run: each decided window is flushed (atomically, CRC-checksummed)
// before it counts as completed, so a killed or canceled run leaves a
// resumable directory behind.
//
// With resume false the store is cleared and a fresh manifest written.
// With resume true the store's manifest must match this engine's (same
// spec, partitioning, options — see Manifest);
// matching window records are then restored instead of re-solved,
// bit-identically, with corrupt or mismatched records silently
// re-solved. resumed reports how many windows the next Run will
// restore.
//
// Checkpointing requires retained ranks: it returns an error under
// Config.DiscardRanks. Pass a nil store to disable checkpointing. Do
// not call concurrently with Run.
func (e *Engine) SetCheckpoint(store *checkpoint.Store, resume bool) (resumed int, err error) {
	if store == nil {
		e.solve.setCheckpoint(nil)
		return 0, nil
	}
	if e.plan.Cfg.DiscardRanks {
		return 0, errors.New("core: checkpointing requires retained ranks (Config.DiscardRanks is set)")
	}
	want := e.Manifest()
	if !resume {
		if err := store.Clear(); err != nil {
			return 0, err
		}
		if err := store.WriteManifest(want); err != nil {
			return 0, err
		}
		e.solve.setCheckpoint(&ckptRun{store: store})
		return 0, nil
	}
	have, ok, err := store.LoadManifest()
	if err != nil {
		return 0, fmt.Errorf("core: cannot resume from %s: %w; re-run without -resume to start over", store.Dir(), err)
	}
	if !ok {
		// Nothing to resume from; start checkpointing fresh.
		if err := store.WriteManifest(want); err != nil {
			return 0, err
		}
		e.solve.setCheckpoint(&ckptRun{store: store})
		return 0, nil
	}
	if have != want {
		return 0, fmt.Errorf("core: checkpoint in %s belongs to a different run (manifest mismatch); re-run without -resume to start over", store.Dir())
	}
	windows, _, err := store.LoadWindows()
	if err != nil {
		return 0, err
	}
	t := e.plan.Temporal
	for idx, w := range windows {
		// Drop records that cannot belong to this run despite the
		// manifest match (wrong index range or rank-vector shape): they
		// will simply be re-solved and overwritten.
		if idx < 0 || idx >= t.Spec.Count || len(w.Ranks) != int(t.ForWindow(idx).NumLocal()) {
			delete(windows, idx)
		}
	}
	e.solve.setCheckpoint(&ckptRun{store: store, resumed: windows})
	return len(windows), nil
}

// Run computes PageRank for every window of the sequence and returns
// the series. Sequential re-runs on the same engine are supported (the
// representation is read-only and the arena recycles between runs);
// overlapping calls return ErrConcurrentRun. Cancel ctx to stop
// mid-solve: Run then returns a *CanceledError (matching ErrCanceled)
// carrying the completed-window count. A nil ctx never cancels.
func (e *Engine) Run(ctx context.Context) (*Series, error) {
	if !e.running.CompareAndSwap(false, true) {
		return nil, ErrConcurrentRun
	}
	defer e.running.Store(false)
	j := e.plan.Cfg.Journal
	start := time.Now()
	j.EmitRunStart(e.plan.Windows, e.plan.Cfg.Mode.String(), e.plan.Workers, e.plan.Update())
	out, err := e.solve.Run(ctx, e.plan)
	if err != nil {
		if errors.Is(err, ErrCanceled) {
			done := 0
			var ce *CanceledError
			if errors.As(err, &ce) {
				done = ce.Completed
			}
			j.EmitRunEnd("canceled", done, e.plan.Windows, time.Since(start).Seconds(), errString(err))
		} else {
			j.EmitRunEnd("failed", e.solve.Completed(), e.plan.Windows, time.Since(start).Seconds(), errString(err))
		}
		return nil, err
	}
	pubStart := time.Now()
	series, err := (PublishStage{}).Run(PublishInput{
		Plan:         e.plan,
		Solve:        out,
		BuildSeconds: e.build.Seconds,
	})
	if err != nil {
		j.EmitRunEnd("failed", e.plan.Windows, e.plan.Windows, time.Since(start).Seconds(), errString(err))
		return nil, err
	}
	series.Report.SetPhase("publish", time.Since(pubStart).Seconds())
	j.EmitRunEnd("completed", e.plan.Windows, e.plan.Windows, time.Since(start).Seconds(), "")
	return series, nil
}
