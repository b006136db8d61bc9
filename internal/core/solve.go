package core

import (
	"context"
	"sync/atomic"
	"time"

	"pmpr/internal/obs"
	"pmpr/internal/sched"
)

// SolveStage executes solve plans on a pool. It owns the scratch arena
// (kernel working memory, reused across Run calls, so steady-state
// iteration is allocation-free from the second window onward); its
// only telemetry is the plan's Cfg.Journal. One stage solves many plans
// sequentially; concurrent Run calls on the same stage are not allowed
// (the Engine guards this with ErrConcurrentRun).
type SolveStage struct {
	pool  *sched.Pool
	arena *scratchArena
	ckpt  *ckptRun // optional; nil = no checkpointing

	// cur points at the in-flight (or most recent) run, whose decided
	// window count Completed reports.
	cur atomic.Pointer[solveRun]
}

// NewSolveStage creates a solve stage for pool (nil = serial
// execution).
func NewSolveStage(pool *sched.Pool) *SolveStage {
	return &SolveStage{pool: pool, arena: newArena(pool)}
}

// Completed reports how many windows the in-flight (or most recent)
// Run has decided. Safe to call concurrently with Run.
func (st *SolveStage) Completed() int {
	if r := st.cur.Load(); r != nil {
		return int(r.completed.Load())
	}
	return 0
}

// setCheckpoint attaches per-run checkpoint state (Engine.SetCheckpoint
// builds it). Do not call concurrently with Run.
func (st *SolveStage) setCheckpoint(c *ckptRun) { st.ckpt = c }

// ScratchStats snapshots the scratch arena's buffer-reuse counters.
func (st *SolveStage) ScratchStats() ScratchStats { return st.arena.stats() }

// SolveOutput is the solve stage's product: per-window results plus the
// counter deltas the publish stage folds into the report.
type SolveOutput struct {
	// Results holds one entry per global window.
	Results []WindowResult
	// MWSweeps[i] counts the shared-CSR sweeps this run made over
	// multi-window graph i: Σ over its solved windows of their
	// iterations. Windows restored from a checkpoint add none.
	MWSweeps []int64
	// Seconds is the solve wall time (phase "solve").
	Seconds float64
	// Sched is the pool counter delta; nil unless Pool.EnableMetrics.
	Sched *SchedReport
	// Scratch is the arena counter delta for this run.
	Scratch *ScratchReport
	// RunsScanned is the counted scan work: Σ over solved windows of
	// the run index size × the sweeps the window ran.
	RunsScanned int64
	// InitRunsVisited is Σ over kernel Inits of the stored runs walked.
	InitRunsVisited int64
	// PairsSwept is Σ over sweeps of the window's active vertices.
	PairsSwept int64
}

// Run executes the plan. On cancellation it returns a *CanceledError
// (matching ErrCanceled) carrying how many windows completed; the
// scratch arena is left consistent — the kernel's Finalize runs even
// on the cancel path — so the stage can be reused immediately. Window
// faults (panics, injected errors) are absorbed by the failure ladder:
// failed windows retry, degrade to the serial vertex loop, and finally
// quarantine in the results, so the only error paths out of a started
// run are cancellation and validation.
func (st *SolveStage) Run(ctx context.Context, plan *SolvePlan) (out SolveOutput, err error) {
	defer emitStage(plan.Cfg.Journal, "solve", &err)()
	r := &solveRun{
		plan:       plan,
		arena:      st.arena,
		journal:    plan.Cfg.Journal,
		ckpt:       st.ckpt,
		results:    make([]WindowResult, plan.Windows),
		unitSweeps: make([]int64, len(plan.Units)),
	}
	st.cur.Store(r)
	if plan.Cfg.Validate {
		r.val = &runValidator{}
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return SolveOutput{}, &CanceledError{Total: plan.Windows, Cause: err}
		}
		// One AfterFunc per Run (not per loop) keeps the per-iteration
		// cancel check down to an atomic load, preserving the kernels'
		// 0 allocs/op steady state.
		stop := context.AfterFunc(ctx, func() { r.canceledFlag.Store(true) })
		defer stop()
	}
	var before sched.Stats
	metrics := st.pool != nil && st.pool.MetricsEnabled()
	if metrics {
		before = st.pool.Stats()
	}
	scratchBefore := st.arena.stats()
	start := time.Now()
	r.dispatch(ctx, st.pool)
	dur := time.Since(start)
	if r.canceledFlag.Load() || (ctx != nil && ctx.Err() != nil) {
		var cause error
		if ctx != nil {
			cause = ctx.Err()
		}
		ce := &CanceledError{
			Completed: int(r.completed.Load()),
			Total:     plan.Windows,
			Cause:     cause,
		}
		if st.ckpt != nil {
			// Every window counted in Completed was flushed before the
			// count moved, so the caller can report a resumable path.
			ce.Checkpoint = st.ckpt.store.Dir()
		}
		r.journal.EmitCancel(ce.Completed, ce.Total)
		return SolveOutput{}, ce
	}
	if r.val != nil {
		if err := r.val.err(); err != nil {
			return SolveOutput{}, err
		}
	}
	out = SolveOutput{
		Results:         r.results,
		MWSweeps:        make([]int64, len(plan.Temporal.MWs)),
		Seconds:         dur.Seconds(),
		RunsScanned:     r.runsScanned.Load(),
		InitRunsVisited: r.initRunsVisited.Load(),
		PairsSwept:      r.pairsSwept.Load(),
	}
	mi := 0
	for ui := range plan.Units {
		for plan.Temporal.MWs[mi] != plan.Units[ui].MW {
			mi++
		}
		out.MWSweeps[mi] += r.unitSweeps[ui]
	}
	if metrics {
		d := st.pool.Stats().Delta(before)
		out.Sched = &SchedReport{
			Workers:       d.Workers,
			TotalTasks:    d.TotalTasks(),
			TotalSteals:   d.TotalSteals(),
			TotalSplits:   d.TotalSplits(),
			LoadImbalance: d.Imbalance(),
		}
	}
	sd := st.arena.stats().Delta(scratchBefore)
	sr := &ScratchReport{Gets: sd.Gets, Hits: sd.Hits, Misses: sd.Misses}
	if sd.Gets > 0 {
		sr.HitRate = float64(sd.Hits) / float64(sd.Gets)
	}
	out.Scratch = sr
	return out, nil
}

// solveRun is the per-Run state of the solve stage: the plan being
// executed, the result sink, and the cancellation flag the driver
// polls between units, windows, and iterations.
type solveRun struct {
	plan    *SolvePlan
	arena   *scratchArena
	val     *runValidator // nil unless Cfg.Validate
	journal *obs.Journal  // nil = no event emission
	ckpt    *ckptRun      // nil = no checkpointing
	results []WindowResult
	// unitSweeps[i] counts unit i's sweeps; each unit runs on one
	// goroutine, so its slot needs no synchronization.
	unitSweeps []int64

	canceledFlag    atomic.Bool
	completed       atomic.Int64
	runsScanned     atomic.Int64 // Σ run-index size × sweeps over windows
	initRunsVisited atomic.Int64 // Σ stored runs walked by kernel Inits
	pairsSwept      atomic.Int64 // Σ active vertices over sweeps
}

func (r *solveRun) canceled() bool { return r.canceledFlag.Load() }

// windowDecided records a decided (solved, restored, or failed) window
// on the journal, whose reducer derives the histograms, /status and
// trace from it. Runs once per window at window boundaries — never
// inside iteration loops — so the kernels' steady-state allocation
// guarantees are untouched.
func (r *solveRun) windowDecided(res *WindowResult) {
	r.journal.EmitWindowDone(res.Window, res.Worker, res.Status.String(),
		res.Iterations, res.FinalResidual, res.Converged, res.WallSeconds)
}

// dispatch fans the plan's units out on the pool. A unit's windows are
// sequentially dependent through partial initialization but mutually
// independent across units (this is why Fig. 8's window-level runs
// improve with more multi-window graphs), so the unit is the outer
// loop's item. App-level runs the units in order on one worker; the
// other modes spread them over the pool. Whether a unit's vertex loops
// fork is the plan's decision (SolvePlan.ForkVertexLoops), not the
// mode's.
func (r *solveRun) dispatch(ctx context.Context, pool *sched.Pool) {
	cfg := &r.plan.Cfg
	n := len(r.plan.Units)
	if pool == nil {
		r.unitRange(0, n, -1, serialLoop)
		return
	}
	grain := cfg.grain()
	part := cfg.Partitioner
	loopOn := func(w *sched.Worker) forLoop {
		if r.plan.ForkVertexLoops {
			return workerLoop(ctx, w, grain, part)
		}
		return serialLoop
	}
	if cfg.Mode == AppLevel {
		// Windows strictly in order; all parallelism inside the kernel.
		// The outer loop runs on one pool worker (via RunCtx) so the
		// inner loops fork from a worker context instead of paying the
		// external-submission path per parallel region.
		pool.RunCtx(ctx, func(w *sched.Worker) {
			r.unitRange(0, n, -1, loopOn(w))
		})
		return
	}
	outerGrain := grain
	if cfg.Mode == Nested {
		outerGrain = 1
	}
	pool.ParallelForCtx(ctx, n, outerGrain, part, func(w *sched.Worker, lo, hi int) {
		r.unitRange(lo, hi, w.ID(), loopOn(w))
	})
}

// unitRange processes units [lo, hi) in order.
func (r *solveRun) unitRange(lo, hi, wid int, loop forLoop) {
	for i := lo; i < hi; i++ {
		if r.canceled() {
			return
		}
		r.solveUnit(i, wid, loop)
	}
}

// solveUnit runs one unit's warm-start chain: each window after the
// unit's first warm-starts from its predecessor's rank vector. Each
// window runs under the failure ladder (solveBatchFT); a quarantined
// window leaves a nil vector, so its successor cold-starts. Windows a
// resume checkpoint holds are restored instead of solved
// (restoreWindow). Under Cfg.DiscardRanks a window's rank vector is
// recycled as soon as its successor has consumed it — including the
// final window's vector after the loop.
func (r *solveRun) solveUnit(ui, wid int, loop forLoop) {
	u := &r.plan.Units[ui]
	mw := u.MW
	sb, release := r.arena.acquire(wid)
	defer release()
	cfg := &r.plan.Cfg
	b := Batch{cfg: cfg, scratch: sb, loop: loop, mw: mw}

	// prev is the rank vector of the window before w, kept until w has
	// consumed it for partial initialization.
	var prev []float64
	var w int
	// stage re-stages window w from scratch; solveBatchFT calls it
	// before every attempt, so retries see the exact inputs (including
	// the warm-start vector) of the first attempt.
	stage := func() {
		b.view = mw.ViewOf(w)
		b.init = nil
		if cfg.PartialInit {
			b.init = prev
		}
		b.result = WindowResult{Window: w, Worker: wid, mw: mw}
	}
	for w = mw.WinLo + u.Lo; w < mw.WinLo+u.Hi; w++ {
		if r.canceled() {
			break
		}
		if r.restoreWindow(mw, w, wid) {
			prev = r.results[w].ranks
			continue
		}
		stage()
		r.journal.EmitWindowStart(w, wid)
		t0 := time.Now()
		if !r.solveBatchFT(&b, stage) {
			recycleUndecided(sb, &b.result)
			break // canceled mid-attempt
		}
		res := &b.result
		res.WallSeconds = time.Since(t0).Seconds()
		if res.Status != WindowFailed {
			r.validateWindow(res)
		}
		r.windowDecided(res)
		if cfg.DiscardRanks && prev != nil {
			// w has consumed its predecessor's vector; recycle it.
			sb.putF64(prev)
		}
		prev = res.ranks
		if cfg.DiscardRanks {
			res.ranks = nil
		}
		r.results[w] = *res
		r.checkpointWindow(&r.results[w])
		r.completed.Add(1)
		r.unitSweeps[ui] += int64(res.Iterations)
	}
	if cfg.DiscardRanks && prev != nil {
		// The final window's vector has no consumer.
		sb.putF64(prev)
	}
}

// runBatch is the convergence loop of every window, on the plan's
// vertex loop and on the degrade path alike: Init stages the window,
// each iteration advances it until its residual drops below the
// tolerance, and Finalize always runs — cancellation included — so the
// scratch lease is returned on every exit path. The window's scan work
// (indexed runs × sweeps), the runs its Init walked and the active
// vertices its sweeps advanced are counted with one add each.
func (r *solveRun) runBatch(b *Batch) {
	b.truncated = false
	if r.canceled() {
		// Canceled before staging: leave the batch undecided instead of
		// letting a trivially convergent one (e.g. an empty window, whose
		// loop below never runs) complete after the cancel landed.
		b.truncated = true
		return
	}
	kern := &b.kern
	kern.Init(b)
	res := &b.result
	opt := b.cfg.Opts
	for res.Iterations < opt.MaxIter && !res.Converged {
		if r.canceled() {
			b.truncated = true
			break
		}
		kern.Iterate(b)
		res.Iterations++
		res.FinalResidual = kern.Residual()
		res.Converged = res.FinalResidual < opt.Tol
	}
	sweeps := int64(res.Iterations)
	r.runsScanned.Add(kern.runs.kept * sweeps)
	r.initRunsVisited.Add(kern.runsVisited)
	r.pairsSwept.Add(int64(res.ActiveVertices) * sweeps)
	kern.Finalize(b)
}

// recycleUndecided returns the rank vector Finalize staged for a
// window that solveBatchFT left undecided: the run is ending with an
// error, so nothing will consume it.
func recycleUndecided(sb *scratchBuf, res *WindowResult) {
	if res.ranks != nil {
		sb.putF64(res.ranks)
		res.ranks = nil
	}
}

// validateWindow checks a freshly solved window's rank vector against
// the invariant catalog. It must run before DiscardRanks nils the
// vector. No-op unless the run set up a validator (Cfg.Validate).
func (r *solveRun) validateWindow(res *WindowResult) {
	if r.val == nil {
		return
	}
	if err := checkWindowRanks(res); err != nil {
		r.val.addf("core: window %d: %w", res.Window, err)
	}
}
