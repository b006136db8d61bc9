// This file defines the staged solve pipeline the Engine orchestrates:
//
//	build   — temporal CSR construction + multi-window partitioning
//	plan    — unit layout, vertex-loop forking
//	solve   — kernel execution on the pool (solve.go)
//	publish — Series + RunReport assembly
//
// Each stage is a value with typed inputs and outputs, so stages can be
// re-run, swapped, or cached independently: build once, plan/solve many
// times with different configs, publish only when a report
// is wanted.

package core

import (
	"cmp"
	"errors"
	"fmt"
	"time"

	"pmpr/internal/events"
	"pmpr/internal/fault"
	"pmpr/internal/invariant"
	"pmpr/internal/obs"
	"pmpr/internal/sched"
	"pmpr/internal/tcsr"
)

// BuildStage turns an event log into the postmortem representation:
// the temporal CSR partitioned into multi-window graphs, optionally
// validated against the structural invariant catalog.
type BuildStage struct{}

// BuildInput is what the build stage consumes.
type BuildInput struct {
	// Log is the temporal edge log to represent.
	Log *events.Log
	// Spec is the sliding-window sequence.
	Spec events.WindowSpec
	// Cfg supplies NumMultiWindows, Directed, and Validate; the
	// solve-side fields are ignored here.
	Cfg Config
}

// BuildOutput is the build stage's product.
type BuildOutput struct {
	// Temporal is the built representation.
	Temporal *tcsr.Temporal
	// Seconds is the build wall time (reported as phase "tcsr_build").
	Seconds float64
}

// errString renders an error for journal events ("" for nil).
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// emitStage brackets a stage's execution on the journal: it emits
// stage_start immediately and returns the deferred stage_end emitter,
// which reads *err after any recoverStage conversion has run (register
// it before recoverStage so it executes after).
func emitStage(j *obs.Journal, stage string, err *error) func() {
	j.EmitStageStart(stage)
	start := time.Now()
	return func() {
		j.EmitStageEnd(stage, time.Since(start).Seconds(), errString(*err))
	}
}

// Run builds (and when Cfg.Validate is set, validates) the temporal
// representation. A panic inside the build (e.g. on a malformed log a
// caller constructed by hand) is converted into a *StageError instead
// of crashing the process.
func (BuildStage) Run(in BuildInput) (out BuildOutput, err error) {
	defer emitStage(in.Cfg.Journal, "build", &err)()
	defer recoverStage("build", &err)
	if err := fault.Inject(PointBuild); err != nil {
		return BuildOutput{}, err
	}
	if err := in.Cfg.Check(); err != nil {
		return BuildOutput{}, err
	}
	if in.Cfg.Validate && !in.Cfg.Directed {
		if err := invariant.CheckSymmetric(in.Log); err != nil {
			return BuildOutput{}, fmt.Errorf("core: undirected solve of an unsymmetrized log: %w", err)
		}
	}
	start := time.Now()
	tg, err := tcsr.Build(in.Log, in.Spec, in.Cfg.NumMultiWindows, in.Cfg.Directed)
	if err != nil {
		return BuildOutput{}, err
	}
	if in.Cfg.Validate {
		if err := invariant.CheckTemporal(tg); err != nil {
			return BuildOutput{}, err
		}
		if err := invariant.CheckCoverage(tg, in.Log); err != nil {
			return BuildOutput{}, err
		}
	}
	return BuildOutput{Temporal: tg, Seconds: time.Since(start).Seconds()}, nil
}

// PlanStage resolves a configuration against a built representation:
// it lays the windows out as solve units and decides whether the
// units' vertex loops fork on the pool, so the solve stage's hot path
// does no layout arithmetic.
type PlanStage struct{}

// PlanInput is what the plan stage consumes.
type PlanInput struct {
	// Temporal is the build stage's product.
	Temporal *tcsr.Temporal
	// Cfg is the full solve configuration.
	Cfg Config
	// Workers is the pool size the plan lays work out for (0 = serial).
	Workers int
}

// SolveUnit is one warm-start chain: the window offsets [Lo, Hi)
// within a multi-window graph, solved in order, each window after the
// first warm-starting from its predecessor. The first window
// cold-starts, so the plan decides every warm-start break.
type SolveUnit struct {
	// MW is the multi-window graph this unit solves.
	MW *tcsr.MultiWindow
	// Lo and Hi bound the unit's window offsets within MW.
	Lo, Hi int
}

// SolvePlan is the plan stage's product: everything the solve stage
// needs, precomputed and immutable, so one plan can be solved many
// times (and concurrently on distinct SolveStages).
type SolvePlan struct {
	// Cfg is the configuration the plan was laid out for.
	Cfg Config
	// Temporal is the representation being solved.
	Temporal *tcsr.Temporal
	// Units tile the windows in order; no unit crosses a multi-window
	// graph. Each multi-window graph is one unit, except that pooled
	// window-level and nested plans cut it into warm-start chains of
	// sched.InitialSpan windows, the spans the pool's Auto partitioner
	// would start from, so the pool can spread them.
	Units []SolveUnit
	// Windows is the total window count.
	Windows int
	// Workers is the pool size the plan assumed (0 = serial).
	Workers int
	// ForkVertexLoops reports whether the solve forks each unit's
	// vertex loops on the pool. App-level plans always do: the kernel is
	// their only parallelism. Window-level plans never do. Nested plans
	// do only when the units cannot give every worker one
	// (len(Units) < Workers); otherwise outer parallelism already keeps
	// the pool busy, and a nested plan solves exactly as the
	// window-level plan of the same layout. Serial plans never fork.
	ForkVertexLoops bool
	// Seconds is the planning wall time (reported as phase "plan").
	Seconds float64
}

// The updates a plan can run (SolvePlan.Update).
const (
	UpdateGaussSeidel = "gauss-seidel"
	UpdateJacobi      = "jacobi"
	UpdateCG          = "cg"
)

// Update names the update every window of the plan runs, the degraded
// ones included. A forked plan's chunks would race on reads of the
// current sweep's values, so it sweeps Jacobi, reading the previous
// sweep's. A plan that does not fork solves each unit on one
// goroutine: an undirected solve of a graph built from a symmetrized
// log (tcsr.Temporal.Symmetric) runs conjugate gradient, whose system
// is self-adjoint only there, and any other sweeps Gauss–Seidel,
// reading each neighbour's value from the current sweep.
func (p *SolvePlan) Update() string {
	switch {
	case p.ForkVertexLoops:
		return UpdateJacobi
	case !p.Cfg.Directed && p.Temporal.Symmetric:
		return UpdateCG
	}
	return UpdateGaussSeidel
}

// Run lays out the solve. It fails when Cfg is invalid or Temporal is
// nil; a panic during layout becomes a *StageError.
func (PlanStage) Run(in PlanInput) (plan *SolvePlan, err error) {
	defer emitStage(in.Cfg.Journal, "plan", &err)()
	defer recoverStage("plan", &err)
	if err := fault.Inject(PointPlan); err != nil {
		return nil, err
	}
	if err := in.Cfg.Check(); err != nil {
		return nil, err
	}
	if in.Temporal == nil {
		return nil, errors.New("core: nil temporal representation")
	}
	start := time.Now()
	cfg := in.Cfg
	p := &SolvePlan{
		Cfg:      cfg,
		Temporal: in.Temporal,
		Windows:  in.Temporal.Spec.Count,
		Workers:  in.Workers,
	}
	chain := 0 // 0 = one unit per multi-window graph
	if in.Workers > 1 && cfg.Mode != AppLevel {
		chain = sched.InitialSpan(p.Windows, in.Workers, cfg.grain())
	}
	for _, mw := range in.Temporal.MWs {
		W := mw.NumWindows()
		span := cmp.Or(chain, W)
		for lo := 0; lo < W; lo += span {
			p.Units = append(p.Units, SolveUnit{MW: mw, Lo: lo, Hi: min(lo+span, W)})
		}
	}
	switch cfg.Mode {
	case AppLevel:
		p.ForkVertexLoops = in.Workers > 0
	case Nested:
		p.ForkVertexLoops = len(p.Units) < in.Workers
	}
	p.Seconds = time.Since(start).Seconds()
	return p, nil
}

// PublishStage assembles the user-facing Series and its RunReport from
// a solve output. It is a pure aggregation over the per-window results
// and the counter deltas the solve stage collected.
type PublishStage struct{}

// PublishInput is what the publish stage consumes.
type PublishInput struct {
	// Plan is the plan the solve executed.
	Plan *SolvePlan
	// Solve is the solve stage's output.
	Solve SolveOutput
	// BuildSeconds is the build stage's wall time (phase "tcsr_build").
	BuildSeconds float64
}

// Run assembles the Series with its observability rollup. A panic
// during aggregation becomes a *StageError.
func (PublishStage) Run(in PublishInput) (series *Series, err error) {
	defer emitStage(in.Plan.Cfg.Journal, "publish", &err)()
	defer recoverStage("publish", &err)
	if err := fault.Inject(PointPublish); err != nil {
		return nil, err
	}
	plan := in.Plan
	results := in.Solve.Results
	mwSweeps := in.Solve.MWSweeps
	rep := &RunReport{
		Build:           obs.CollectBuildInfo(),
		Config:          plan.Cfg.Info(),
		Units:           len(plan.Units),
		ForkVertexLoops: plan.ForkVertexLoops,
		Update:          plan.Update(),
		Workers:         plan.Workers,
		Windows:         len(results),
		MWSweeps:        mwSweeps,
		RunsScanned:     in.Solve.RunsScanned,
		InitRunsVisited: in.Solve.InitRunsVisited,
		PairsSwept:      in.Solve.PairsSwept,
		WallSeconds:     in.Solve.Seconds,
	}
	rep.SetPhase("tcsr_build", in.BuildSeconds)
	rep.SetPhase("plan", plan.Seconds)
	rep.SetPhase("solve", in.Solve.Seconds)

	// Warm-start eligibility: every window whose predecessor is in the
	// same multi-window graph, when partial initialization is on.
	if plan.Cfg.PartialInit {
		for _, mw := range plan.Temporal.MWs {
			if n := mw.NumWindows(); n > 1 {
				rep.WarmStart.Eligible += n - 1
			}
		}
	}

	rep.WindowWallSeconds = make([]float64, len(results))
	rep.WindowWorkers = make([]int, len(results))
	var resSum float64
	var active, core int64
	for i := range results {
		r := &results[i]
		rep.TotalIterations += r.Iterations
		if r.Status != WindowResumed && r.Status != WindowFailed {
			active += int64(r.ActiveVertices)
			core += int64(r.CoreVertices)
			if r.ActiveVertices > 0 && r.CoreVertices == 0 {
				rep.ForestWindows++
			}
		}
		if r.UsedPartialInit {
			rep.WarmStart.Hits++
		}
		if !r.Converged {
			rep.Residuals.Unconverged++
		}
		switch r.Status {
		case WindowRetried:
			rep.Fault.Retried++
		case WindowDegraded:
			rep.Fault.Degraded++
		case WindowResumed:
			rep.Fault.Resumed++
		case WindowFailed:
			rep.Fault.Quarantined = append(rep.Fault.Quarantined, r.Window)
		}
		if r.FinalResidual > rep.Residuals.Max {
			rep.Residuals.Max = r.FinalResidual
		}
		resSum += r.FinalResidual
		rep.WindowWallSeconds[i] = r.WallSeconds
		rep.WindowWorkers[i] = r.Worker
	}
	if rep.WarmStart.Eligible > 0 {
		rep.WarmStart.HitRate = float64(rep.WarmStart.Hits) / float64(rep.WarmStart.Eligible)
	}
	if len(results) > 0 {
		rep.Residuals.Mean = resSum / float64(len(results))
	}
	if active > 0 {
		rep.CoreShare = float64(core) / float64(active)
	}
	for _, s := range mwSweeps {
		rep.TotalSweeps += s
	}
	rep.Sched = in.Solve.Sched
	rep.Scratch = in.Solve.Scratch
	return &Series{
		Spec:        plan.Temporal.Spec,
		NumVertices: plan.Temporal.NumVertices(),
		Results:     results,
		Report:      rep,
	}, nil
}
