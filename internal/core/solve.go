package core

import (
	"context"
	"sync/atomic"
	"time"

	"pmpr/internal/invariant"
	"pmpr/internal/obs"
	"pmpr/internal/results"
	"pmpr/internal/sched"
)

// SolveStage executes solve plans on a pool. It owns the scratch arena
// (one workspace per running unit, reused across Run calls, so
// steady-state iteration is allocation-free from the second window
// onward); its only telemetry is the plan's Cfg.Journal. One stage
// solves many plans sequentially; concurrent Run calls on the same
// stage are not allowed (the Engine guards this with ErrConcurrentRun).
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
	return &SolveStage{pool: pool, arena: &scratchArena{}}
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
	// iterations, where a forest the peel solved outright counts one.
	// Windows restored from a checkpoint add none.
	MWSweeps []int64
	// Seconds is the solve wall time (phase "solve").
	Seconds float64
	// Sched is the pool counter delta; nil unless Pool.EnableMetrics.
	Sched *SchedReport
	// Scratch is the arena counter delta for this run.
	Scratch *ScratchReport
	// RunsScanned is the counted scan work: Σ over solved windows of
	// the runs their passes walked (RunReport.RunsScanned).
	RunsScanned int64
	// InitRunsVisited is the stored runs each unit walked once, plus
	// the runs each window's Init inserted into or removed from its
	// chain's index (its deltas, or a rebuild).
	InitRunsVisited int64
	// PairsSwept is Σ over solved windows of the vertices their passes
	// visited (RunReport.PairsSwept).
	PairsSwept int64
}

// Run executes the plan. On cancellation it returns a *CanceledError
// (matching ErrCanceled) carrying how many windows completed; the
// scratch arena is left consistent — the kernel's Finalize runs even
// on the cancel path, and every unit gives its workspace back — so the
// stage can be reused immediately. Window faults (panics, injected
// errors) are absorbed by the failure ladder: failed windows retry,
// degrade to the serial vertex loop, and finally quarantine in the
// results, so the only error paths out of a started run are
// cancellation and validation.
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
	runsScanned     atomic.Int64 // Σ runs the windows' passes walked
	initRunsVisited atomic.Int64 // Σ unit walks + runs Inits inserted or removed
	pairsSwept      atomic.Int64 // Σ vertices the windows' passes visited
}

func (r *solveRun) canceled() bool { return r.canceledFlag.Load() }

// windowDecided records a decided (solved, restored, or failed) window
// on the journal, whose reducer derives the histograms, /status and
// trace from it. Runs once per window at window boundaries — never
// inside iteration loops — so the kernels' steady-state allocation
// guarantees are untouched.
func (r *solveRun) windowDecided(res *WindowResult) {
	r.journal.EmitWindowDone(res.Window, res.Worker, res.Status.String(),
		res.Iterations, int(res.CoreVertices), res.FinalResidual, res.Converged, res.WallSeconds)
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
// unit's first warm-starts from its predecessor's rank vector, and
// takes its run index, degrees and active list from its predecessor's
// by applying the runs that enter and leave (chainIndex), which the
// unit walks the multi-window graph once to find. Each window runs
// under the failure ladder (solveBatchFT); a quarantined
// window leaves a nil vector, so its successor cold-starts. Windows a
// resume checkpoint holds are restored instead of solved
// (restoreWindow). A decided window keeps its ranks as entries (unless
// Cfg.DiscardRanks); its dense vector is the unit's working memory,
// recycled as soon as its successor has consumed it — the final
// window's after the loop. The unit holds one workspace from the arena
// throughout; all its windows' buffers come from it.
func (r *solveRun) solveUnit(ui, wid int, loop forLoop) {
	u := &r.plan.Units[ui]
	mw := u.MW
	ws := r.arena.take()
	defer r.arena.give(ws)
	cfg := &r.plan.Cfg
	b := Batch{cfg: cfg, ws: ws, loop: loop, mw: mw, update: r.plan.Update()}
	b.chain.open(mw, mw.WinLo+u.Lo, mw.WinLo+u.Hi, ws)
	r.initRunsVisited.Add(b.chain.walked)
	if b.update == UpdateCG {
		// Sized once per unit: each window writes them at every active
		// (or core) entry before it reads them, so they cost what the
		// window sees.
		n := int(mw.NumLocal())
		size(ws, &ws.r, n)
		size(ws, &ws.p, n)
		size(ws, &ws.q, n)
		size(ws, &ws.d, n)
		size(ws, &ws.b, n)
		size(ws, &ws.order, n)
		size(ws, &ws.parent, n)
		size(ws, &ws.left, n)
	}

	// prev is the dense rank vector of the window before w, kept until
	// w has consumed it for partial initialization. A vector restored
	// from the checkpoint (restored) belongs to ckptRun.resumed, which a
	// second Run restores from again, so it is never recycled.
	var prev []float64
	var restored bool
	release := func() {
		if prev != nil && !restored {
			ws.recycle(prev)
		}
	}
	var w int
	// stage re-stages window w from scratch; solveBatchFT calls it
	// before every attempt, so retries see the exact inputs (including
	// the warm-start vector) of the first attempt.
	stage := func() {
		b.w, b.init, b.x = w, nil, nil
		if cfg.PartialInit {
			b.init = prev
		}
		b.result = WindowResult{WindowRanks: results.WindowRanks{Window: w}, Worker: wid}
	}
	for w = mw.WinLo + u.Lo; w < mw.WinLo+u.Hi; w++ {
		if r.canceled() {
			break
		}
		if x, ok := r.restoreWindow(mw, w, wid); ok {
			release()
			prev, restored = x, true
			continue
		}
		stage()
		r.journal.EmitWindowStart(w, wid)
		t0 := time.Now()
		if !r.solveBatchFT(&b, stage) {
			recycleUndecided(&b)
			break // canceled mid-attempt
		}
		res := &b.result
		res.WallSeconds = time.Since(t0).Seconds()
		x := b.x
		if res.Status != WindowFailed {
			r.validateWindow(res, x)
			if !cfg.DiscardRanks {
				res.Vertices, res.Ranks = rankEntries(mw, x, b.chain.list)
			}
		}
		r.windowDecided(res)
		r.results[w] = *res
		r.checkpointWindow(&r.results[w], x)
		// w has consumed its predecessor's vector; recycle it.
		release()
		prev, restored = x, false
		r.completed.Add(1)
		sweeps := int64(res.Iterations)
		if res.Status != WindowFailed && res.ActiveVertices > 0 && res.CoreVertices == 0 {
			// A forest the peel solved in Init: its elimination and
			// true-residual pull pass over the window once.
			sweeps = 1
		}
		r.unitSweeps[ui] += sweeps
	}
	// The final window's vector has no consumer.
	release()
}

// runBatch is the convergence loop of every window, on the plan's
// vertex loop and on the degrade path alike: Init stages the window,
// each iteration advances it until its residual drops below the
// tolerance, and Finalize always runs — cancellation included — so the
// workspace stays consistent on every exit path. The window's scan work
// (the runs its passes walked), the runs its Init inserted into or
// removed from the chain's index and the vertices its passes visited
// are counted with one add each. A window Init solves (a forest under
// conjugate gradient) is decided with no iteration, so the residual
// Init left is its final one.
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
	res.FinalResidual = kern.Residual()
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
	res.ErrorBound = errorBound(opt.Alpha, res.FinalResidual)
	r.runsScanned.Add(kern.runsScanned)
	r.initRunsVisited.Add(kern.runsVisited)
	r.pairsSwept.Add(kern.pairsSwept)
	kern.Finalize(b)
}

// errorBound is the L1 distance to the exact PageRank vector that a
// window's final residual guarantees: (1−α)/α · residual. For Jacobi,
// an L1 contraction by 1−α, it is the standard a-posteriori bound; for
// conjugate gradient, whose residual is ‖r‖₁/(1−α) of the kept
// vector's true residual r, it is the proven ‖r‖₁/α; for Gauss–Seidel
// it is checked against the oracle, not proven.
func errorBound(alpha, residual float64) float64 {
	return (1 - alpha) / alpha * residual
}

// recycleUndecided returns the rank vector Finalize staged for a
// window that solveBatchFT left undecided: the run is ending with an
// error, so nothing will consume it.
func recycleUndecided(b *Batch) {
	if b.x != nil {
		b.ws.recycle(b.x)
	}
}

// validateWindow checks a freshly solved window's dense rank vector x
// against the invariant catalog. No-op unless the run set up a
// validator (Cfg.Validate).
func (r *solveRun) validateWindow(res *WindowResult, x []float64) {
	if r.val == nil {
		return
	}
	if err := invariant.CheckRanks(x, res.ActiveVertices, invariant.DefaultRankTol); err != nil {
		r.val.addf("core: window %d: %w", res.Window, err)
	}
}
