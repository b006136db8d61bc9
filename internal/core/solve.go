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
	// multi-window graph i: Σ over its solved batches of the batch's
	// iteration maximum. Windows restored from a checkpoint add none.
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
	// InitRunsVisited is Σ over batch Inits of the stored runs walked.
	InitRunsVisited int64
	// PairsSwept is Σ over sweeps of the live active (vertex, slot)
	// pairs.
	PairsSwept int64
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
// polls between units, batches, and iterations.
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
	runsScanned     atomic.Int64 // Σ run-index size × sweeps over batches
	initRunsVisited atomic.Int64 // Σ stored runs walked by batch Inits
	pairsSwept      atomic.Int64 // Σ live active (vertex, slot) pairs over sweeps
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

// dispatch fans the plan's units out on the pool. A unit's batches are
// sequentially dependent through partial initialization but mutually
// independent across units (this is why Fig. 8's window-level runs
// improve with more multi-window graphs), so the unit is the outer
// loop's item at every width. App-level runs the units in order on one
// worker; the other modes spread them over the pool. Whether a unit's
// vertex loops fork is the plan's decision (SolvePlan.ForkVertexLoops),
// not the mode's.
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

// solveUnit runs one unit's batch sequence. Batch j gathers the j-th
// window of every region (layout precomputed by the plan stage), so one
// kernel batch advances up to K windows and every batch after the first
// warm-starts from its region predecessors. Each batch runs under the
// failure ladder (solveBatchFT); a quarantined window leaves a nil
// vector, so its successor cold-starts. Batches a resume checkpoint
// holds are restored instead of solved (restoreBatch). Under
// Cfg.DiscardRanks a batch's rank vectors are recycled as soon as the
// next batch has consumed them — including the final batch's vectors
// after the loop.
func (r *solveRun) solveUnit(ui, wid int, loop forLoop) {
	u := &r.plan.Units[ui]
	mw := u.MW
	K := u.K
	base := u.RegionStart[0]
	sb, release := r.arena.acquire(wid)
	defer release()
	cfg := &r.plan.Cfg
	point := PointSolveBatch
	if r.plan.Width == 1 {
		point = PointSolveWindow
	}

	// ranks[o] is the rank vector of window offset base+o, kept until
	// batch o+1 has consumed it for partial initialization.
	ranks := sb.getVecs(u.RegionStart[K] - base)
	viewsBuf := sb.getViews(K)
	initsBuf := sb.getVecs(K)
	resultsBuf := sb.getResults(K)
	liveBuf := sb.getInt(K)
	b := Batch{cfg: cfg, scratch: sb, loop: loop, mw: mw}

	// stage re-stages batch curJ from scratch; solveBatchFT calls it
	// before every attempt, so retries see the exact inputs (including
	// warm-start vectors from ranks) of the first attempt.
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
				initsBuf[slots] = ranks[off-1-base]
			} else {
				initsBuf[slots] = nil
			}
			resultsBuf[slots] = WindowResult{Window: w, Worker: wid, mw: mw}
			slots++
		}
		b.views = viewsBuf[:slots]
		b.inits = initsBuf[:slots]
		b.results = resultsBuf[:slots]
		b.live = liveBuf[:0]
	}
	for j := 0; j < u.NumBatches; j++ {
		if r.canceled() {
			break
		}
		if r.restoreBatch(u, j, wid, ranks) {
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
		if !r.solveBatchFT(&b, stage, point) {
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
			ranks[res.Window-mw.WinLo-base] = res.ranks
			if cfg.DiscardRanks {
				res.ranks = nil
			}
			r.results[res.Window] = *res
			r.checkpointWindow(&r.results[res.Window])
			r.completed.Add(1)
		}
		r.unitSweeps[ui] += sweeps
		if cfg.DiscardRanks && j > 0 {
			// Batch j-1's vectors have been consumed; recycle them.
			for reg := 0; reg < K; reg++ {
				if off := u.RegionStart[reg] + j - 1; off < u.RegionStart[reg+1] {
					sb.putF64(ranks[off-base])
					ranks[off-base] = nil
				}
			}
		}
	}
	if cfg.DiscardRanks {
		// The final batch's vectors have no consumer; recycle whatever
		// is still staged so a unit does not hold K rank vectors past
		// its solve.
		for o := range ranks {
			if ranks[o] != nil {
				sb.putF64(ranks[o])
				ranks[o] = nil
			}
		}
	}
	sb.putInt(liveBuf)
	sb.putResults(resultsBuf)
	sb.putVecs(initsBuf)
	sb.putViews(viewsBuf)
	sb.putVecs(ranks)
}

// runBatch is the convergence loop of every batch, at every width and
// on the degrade path alike: Init stages and marks live slots, each
// iteration advances the live set and retires slots whose residual
// drops below the tolerance, and Finalize always runs — cancellation
// included — so the scratch lease is returned on every exit path. The
// batch's scan work (indexed runs × sweeps), the runs its Init walked
// and the active pairs its sweeps advanced are counted with one add
// each.
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
	var sweeps, pairs int64
	for it := 0; it < opt.MaxIter && len(b.live) > 0; it++ {
		if r.canceled() {
			b.truncated = true
			break
		}
		for _, s := range b.live {
			b.results[s].Iterations = it + 1
			pairs += int64(b.results[s].ActiveVertices)
		}
		kern.Iterate(b)
		sweeps++
		next := b.live[:0]
		for _, s := range b.live {
			res := kern.Residual(b, s)
			b.results[s].FinalResidual = res
			if res < opt.Tol {
				b.results[s].Converged = true
			} else {
				next = append(next, s)
			}
		}
		b.live = next
	}
	r.runsScanned.Add(kern.runs.kept * sweeps)
	r.initRunsVisited.Add(kern.runsVisited)
	r.pairsSwept.Add(pairs)
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
