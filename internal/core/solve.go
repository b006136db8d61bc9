package core

import (
	"context"
	"sync/atomic"
	"time"

	"pmpr/internal/obs"
	"pmpr/internal/sched"
	"pmpr/internal/tcsr"
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
	// MWSweeps[i] counts shared-CSR sweeps of multi-window graph i; for
	// width-1 plans the publish stage recomputes it from iterations.
	MWSweeps []int64
	// Seconds is the solve wall time (phase "solve").
	Seconds float64
	// Sched is the pool counter delta; nil unless Pool.EnableMetrics.
	Sched *SchedReport
	// Scratch is the arena counter delta for this run.
	Scratch *ScratchReport
	// RunsScanned is the counted scan work: Σ over batches of the run
	// index size × the sweeps the batch ran.
	RunsScanned int64
}

// Run executes the plan. On cancellation it returns a *CanceledError
// (matching ErrCanceled) carrying how many windows completed; the
// scratch arena is left consistent — the kernel's Finalize runs even
// on the cancel path — so the stage can be reused immediately. Window
// faults (panics, injected errors) are absorbed by the failure ladder:
// failed windows retry, degrade to the serial width-1 kernel, and finally
// quarantine in the results, so the only error paths out of a started
// run are cancellation and validation.
func (st *SolveStage) Run(ctx context.Context, plan *SolvePlan) (out SolveOutput, err error) {
	defer emitStage(plan.Cfg.Journal, "solve", &err)()
	r := &solveRun{
		plan:     plan,
		arena:    st.arena,
		journal:  plan.Cfg.Journal,
		ckpt:     st.ckpt,
		results:  make([]WindowResult, plan.Windows),
		mwSweeps: make([]int64, len(plan.Temporal.MWs)),
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
		Results:     r.results,
		MWSweeps:    r.mwSweeps,
		Seconds:     dur.Seconds(),
		RunsScanned: r.runsScanned.Load(),
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
// executed, the result sink, and the cancellation flag the drivers
// poll between windows, batches, and iterations.
type solveRun struct {
	plan     *SolvePlan
	arena    *scratchArena
	val      *runValidator // nil unless Cfg.Validate
	journal  *obs.Journal  // nil = no event emission
	ckpt     *ckptRun      // nil = no checkpointing
	results  []WindowResult
	mwSweeps []int64

	canceledFlag atomic.Bool
	completed    atomic.Int64
	runsScanned  atomic.Int64 // Σ run-index size × sweeps over batches
}

func (r *solveRun) canceled() bool { return r.canceledFlag.Load() }

// windowDecided records a decided (solved, restored, or failed) window
// on the journal, whose reducer derives the histograms, /status and
// trace from it. Runs once per window at batch boundaries — never
// inside iteration loops — so the kernels' steady-state allocation
// guarantees are untouched.
func (r *solveRun) windowDecided(res *WindowResult) {
	r.journal.EmitWindowDone(res.Window, res.Worker, res.Status.String(),
		res.Iterations, res.FinalResidual, res.Converged, res.WallSeconds)
}

// dispatch fans the plan's work units out according to the parallel
// mode. Width-1 plans parallelize over window ranges (warm-start
// chains form inside each range); wider plans parallelize over
// multi-window units, whose batches are sequentially dependent through
// partial initialization but mutually independent across units (this
// is why Fig. 8's window-level runs improve with more multi-window
// graphs).
func (r *solveRun) dispatch(ctx context.Context, pool *sched.Pool) {
	cfg := &r.plan.Cfg
	grain := cfg.grain()
	part := cfg.Partitioner
	count := r.plan.Windows
	fn := r.windowRange
	outerGrain := grain
	if r.plan.Width > 1 {
		count = len(r.plan.Units)
		fn = r.unitRange
		if cfg.Mode == Nested {
			outerGrain = 1
		}
	}
	switch {
	case pool == nil:
		fn(0, count, -1, serialLoop)
	case cfg.Mode == AppLevel:
		// Windows strictly in order; all parallelism inside the kernel.
		// The outer loop runs on one pool worker (via RunCtx) so the
		// inner loops fork from a worker context instead of paying the
		// external-submission path per parallel region.
		pool.RunCtx(ctx, func(w *sched.Worker) {
			fn(0, count, -1, workerLoop(ctx, w, grain, part))
		})
	case cfg.Mode == WindowLevel:
		pool.ParallelForCtx(ctx, count, outerGrain, part, func(w *sched.Worker, lo, hi int) {
			fn(lo, hi, w.ID(), serialLoop)
		})
	default: // Nested
		pool.ParallelForCtx(ctx, count, outerGrain, part, func(w *sched.Worker, lo, hi int) {
			fn(lo, hi, w.ID(), workerLoop(ctx, w, grain, part))
		})
	}
}

// windowRange processes windows [lo, hi) in order in width-1 batches,
// chaining partial initialization inside the range: a window
// warm-starts iff its predecessor was computed in this same range and
// lives in the same multi-window graph — exactly the paper's "if the
// same thread processes Gi-1 and Gi, partial initialization occurs".
// Each window runs under the fault policy (solveBatchFT): a failed
// window retries, degrades, or quarantines, and its successor then
// warm-starts from whatever vector survived (a quarantined window
// leaves nil, so the successor cold-starts from the uniform vector).
// Windows held by a resume checkpoint are restored instead of solved.
func (r *solveRun) windowRange(lo, hi, wid int, loop forLoop) {
	sb, release := r.arena.acquire(wid)
	defer release()
	cfg := &r.plan.Cfg
	b := Batch{
		cfg:     cfg,
		scratch: sb,
		loop:    loop,
		views:   sb.getViews(1),
		inits:   sb.getVecs(1),
		isLive:  sb.getBool(1),
	}
	liveBuf := sb.getInt(1)
	var prev []float64
	var prevMW *tcsr.MultiWindow
	// stage is the (single, hoisted) re-staging closure solveBatchFT
	// calls before every attempt; cur* carry the window being attempted.
	var curW, curWid int
	var curMW *tcsr.MultiWindow
	var curInit []float64
	stage := func() {
		b.mw = curMW
		b.views[0] = curMW.ViewOf(curW)
		b.inits[0] = curInit
		b.results[0] = WindowResult{Window: curW, Worker: curWid, mw: curMW}
		b.live = liveBuf[:0]
		b.isLive[0] = false
	}
	for w := lo; w < hi; w++ {
		if r.canceled() {
			break
		}
		mw := r.plan.Temporal.ForWindow(w)
		if cw := r.resumedWindow(w); cw != nil {
			res := &r.results[w]
			restoreResult(res, cw, mw, wid)
			r.journal.EmitCheckpointResume(w)
			r.windowDecided(res)
			prev, prevMW = res.ranks, mw
			r.completed.Add(1)
			continue
		}
		if cfg.PartialInit && prevMW == mw && prev != nil {
			curInit = prev
		} else {
			curInit = nil
		}
		curW, curWid, curMW = w, wid, mw
		b.results = r.results[w : w+1]
		stage()
		r.journal.EmitWindowStart(w, wid)
		t0 := time.Now()
		if !r.solveBatchFT(&b, stage, PointSolveWindow) {
			recycleUndecided(sb, b.results)
			break // canceled mid-attempt
		}
		res := &b.results[0]
		res.WallSeconds = time.Since(t0).Seconds()
		if res.Status != WindowFailed {
			r.validateWindow(res)
		}
		r.windowDecided(res)
		if cfg.DiscardRanks && prev != nil {
			// The predecessor vector has served its warm start; recycle.
			sb.putF64(prev)
		}
		prev, prevMW = res.ranks, mw
		if cfg.DiscardRanks {
			res.ranks = nil
		}
		r.checkpointWindow(res)
		r.completed.Add(1)
	}
	if cfg.DiscardRanks && prev != nil {
		sb.putF64(prev)
	}
	sb.putInt(liveBuf)
	sb.putBool(b.isLive)
	sb.putVecs(b.inits)
	sb.putViews(b.views)
}

// unitRange processes multi-window units [lo, hi) in batches of the
// plan's width.
func (r *solveRun) unitRange(lo, hi, wid int, loop forLoop) {
	for i := lo; i < hi; i++ {
		if r.canceled() {
			return
		}
		r.solveUnit(i, wid, loop)
	}
}

// solveUnit runs one multi-window graph's batch sequence. Batch j
// gathers the j-th window of every region (layout precomputed by the
// plan stage), so one kernel batch advances up to K windows and every
// batch after the first warm-starts from its region predecessors.
// Under Cfg.DiscardRanks a batch's rank vectors are recycled as soon
// as the next batch has consumed them — including the final batch's
// vectors after the loop.
func (r *solveRun) solveUnit(ui, wid int, loop forLoop) {
	u := &r.plan.Units[ui]
	mw := u.MW
	W := mw.NumWindows()
	if W == 0 {
		return
	}
	sb, release := r.arena.acquire(wid)
	defer release()
	cfg := &r.plan.Cfg
	K := u.K

	// ranksByOffset[o] is the rank vector of window mw.WinLo+o, kept
	// until batch o+1 has consumed it for partial initialization.
	ranksByOffset := sb.getVecs(W)
	viewsBuf := sb.getViews(K)
	initsBuf := sb.getVecs(K)
	resultsBuf := sb.getResults(K)
	liveBuf := sb.getInt(K)
	isLiveBuf := sb.getBool(K)
	b := Batch{cfg: cfg, scratch: sb, loop: loop, mw: mw}

	// stage re-stages batch curJ from scratch; solveBatchFT calls it
	// before every attempt, so retries see the exact inputs (including
	// warm-start vectors from ranksByOffset) of the first attempt.
	var curJ int
	stage := func() {
		slots := 0
		for reg := 0; reg < K; reg++ {
			off := u.RegionStart[reg] + curJ
			if off >= u.RegionStart[reg+1] {
				continue
			}
			w := mw.WinLo + off
			viewsBuf[slots] = mw.ViewOf(w)
			if curJ > 0 && cfg.PartialInit {
				initsBuf[slots] = ranksByOffset[off-1]
			} else {
				initsBuf[slots] = nil
			}
			resultsBuf[slots] = WindowResult{Window: w, Worker: wid, mw: mw}
			isLiveBuf[slots] = false
			slots++
		}
		b.views = viewsBuf[:slots]
		b.inits = initsBuf[:slots]
		b.results = resultsBuf[:slots]
		b.isLive = isLiveBuf[:slots]
		b.live = liveBuf[:0]
	}
	for j := 0; j < u.NumBatches; j++ {
		if r.canceled() {
			break
		}
		if r.restoreBatch(u, j, wid, ranksByOffset) {
			continue
		}
		curJ = j
		stage()
		if r.journal != nil {
			for s := range b.results {
				r.journal.EmitWindowStart(b.results[s].Window, wid)
			}
		}
		t0 := time.Now()
		if !r.solveBatchFT(&b, stage, PointSolveBatch) {
			recycleUndecided(sb, b.results)
			break // canceled mid-attempt
		}
		dur := time.Since(t0)
		// One SpMM sweep of the shared CSR advances every live window
		// of the batch, so the batch's sweep count is its iteration
		// maximum.
		var sweeps int64
		for s := range b.results {
			res := &b.results[s]
			if it := int64(res.Iterations); it > sweeps {
				sweeps = it
			}
			res.WallSeconds = dur.Seconds()
			if res.Status != WindowFailed {
				r.validateWindow(res)
			}
			r.windowDecided(res)
			ranksByOffset[res.Window-mw.WinLo] = res.ranks
			if cfg.DiscardRanks {
				res.ranks = nil
			}
			r.results[res.Window] = *res
			r.checkpointWindow(&r.results[res.Window])
			r.completed.Add(1)
		}
		r.mwSweeps[ui] += sweeps
		if cfg.DiscardRanks && j > 0 {
			// Batch j-1's vectors have been consumed; recycle them.
			for reg := 0; reg < K; reg++ {
				if off := u.RegionStart[reg] + j - 1; off < u.RegionStart[reg+1] {
					sb.putF64(ranksByOffset[off])
					ranksByOffset[off] = nil
				}
			}
		}
	}
	if cfg.DiscardRanks {
		// The final batch's vectors have no consumer; recycle whatever
		// is still staged so a multi-window graph does not hold K rank
		// vectors past its solve.
		for off := range ranksByOffset {
			if ranksByOffset[off] != nil {
				sb.putF64(ranksByOffset[off])
				ranksByOffset[off] = nil
			}
		}
	}
	sb.putBool(isLiveBuf)
	sb.putInt(liveBuf)
	sb.putResults(resultsBuf)
	sb.putVecs(initsBuf)
	sb.putViews(viewsBuf)
	sb.putVecs(ranksByOffset)
}

// runBatch is the convergence loop of every batch, at every width and
// on the degrade path alike: Init stages and marks live slots, each
// iteration advances the live set and retires slots whose residual
// drops below the tolerance, and Finalize always runs — cancellation
// included — so the scratch lease is returned on every exit path. The
// batch's scan work (indexed runs × sweeps) is counted with one add.
func (r *solveRun) runBatch(b *Batch) {
	b.truncated = false
	if r.canceled() {
		// Canceled before staging: leave the batch undecided instead of
		// letting a trivially convergent one (e.g. all-empty windows,
		// whose loop below never runs) complete after the cancel landed.
		b.truncated = true
		return
	}
	kern := &b.kern
	kern.Init(b)
	opt := b.cfg.Opts
	var sweeps int64
	for it := 0; it < opt.MaxIter && len(b.live) > 0; it++ {
		if r.canceled() {
			b.truncated = true
			break
		}
		for _, s := range b.live {
			b.results[s].Iterations = it + 1
		}
		kern.Iterate(b)
		sweeps++
		next := b.live[:0]
		for _, s := range b.live {
			res := kern.Residual(b, s)
			b.results[s].FinalResidual = res
			if res < opt.Tol {
				b.results[s].Converged = true
				b.isLive[s] = false
			} else {
				next = append(next, s)
			}
		}
		b.live = next
	}
	r.runsScanned.Add(kern.runs.size() * sweeps)
	kern.Finalize(b)
}

// recycleUndecided returns the rank vectors Finalize staged for a
// batch that solveBatchFT left undecided: the run is ending with an
// error, so nothing will consume them.
func recycleUndecided(sb *scratchBuf, results []WindowResult) {
	for i := range results {
		if results[i].ranks != nil {
			sb.putF64(results[i].ranks)
			results[i].ranks = nil
		}
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
