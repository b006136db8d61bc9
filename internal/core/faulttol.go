// This file implements the solve stage's per-window fault tolerance
// and checkpoint/resume plumbing. The driver in solve.go stages each
// window and hands it to solveBatchFT, which owns the failure ladder:
//
//	attempt   — run the window under recover(), so a kernel panic (or a
//	            sched.PanicError propagated from a nested vertex loop)
//	            becomes an ordinary error instead of killing the run
//	retry     — re-stage and re-run at once, up to maxRetries times; a
//	            retried attempt sees inputs identical to the first, so a
//	            transient fault leaves no trace in the results
//	degrade   — solve the window once more on the serial vertex loop,
//	            the simplest execution path available
//	quarantine— mark the window WindowFailed with a *WindowError and
//	            move on; the run never aborts on a bad window
//
// Checkpointing rides the same per-window boundary: every decided
// window is flushed before it is counted completed, and a resumed run
// restores checkpointed windows (Status WindowResumed) into the
// warm-start chains exactly where solving would have placed them.

package core

import (
	"errors"

	"pmpr/internal/checkpoint"
	"pmpr/internal/fault"
	"pmpr/internal/tcsr"
)

// maxRetries is how many times a failed window solve is re-attempted
// on the plan's vertex loop before it degrades. Retries
// run at once: the solve is in memory, so there is no contended
// resource a backoff sleep would wait out.
const maxRetries = 2

// Fault-injection points covering the pipeline stages (see
// internal/fault). The solve points fire once per attempt, before the
// kernel runs, so count/after rules map directly onto attempts.
const (
	// PointBuild fires at the top of BuildStage.Run.
	PointBuild = "core.build"
	// PointPlan fires at the top of PlanStage.Run.
	PointPlan = "core.plan"
	// PointSolveWindow fires before each window solve attempt.
	PointSolveWindow = "core.solve.window"
	// PointSolveDegrade fires before each serial-fallback attempt.
	PointSolveDegrade = "core.solve.degrade"
	// PointPublish fires at the top of PublishStage.Run.
	PointPublish = "core.publish"
)

func init() {
	fault.RegisterPoint(PointBuild, "build stage entry (temporal CSR construction)")
	fault.RegisterPoint(PointPlan, "plan stage entry (unit layout, vertex-loop forking)")
	fault.RegisterPoint(PointSolveWindow, "window solve attempt")
	fault.RegisterPoint(PointSolveDegrade, "serial degrade attempt")
	fault.RegisterPoint(PointPublish, "publish stage entry (series/report assembly)")
}

// ckptRun is the per-engine checkpoint state the solve stage consults:
// the store decided windows are flushed to, and the windows a resumed
// run restores instead of solving.
type ckptRun struct {
	store   *checkpoint.Store
	resumed map[int]*checkpoint.Window
}

// attempt runs one staged window with panic isolation: a panic
// anywhere in the kernel (including a sched.PanicError rethrown from a
// nested vertex loop) is converted into a *RecoveredPanic error, and
// the chain's index is invalidated, so the next attempt rebuilds it.
// The injection point fires before the kernel, so armed faults count
// solve attempts.
func (r *solveRun) attempt(b *Batch, point string) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = recoveredError(rec)
			b.chain.invalidate()
		}
	}()
	if ferr := fault.Inject(point); ferr != nil {
		return ferr
	}
	r.runBatch(b)
	return nil
}

// isPanicErr reports whether err records a recovered panic.
func isPanicErr(err error) bool {
	var rp *RecoveredPanic
	return errors.As(err, &rp)
}

// solveBatchFT runs one staged window through the failure ladder and
// stamps its Status, Attempts, and (when quarantined) Err. reset must
// re-stage the window to the exact state it had before the first
// attempt — same view, same warm-start vector, zeroed result — so a
// retried attempt computes the identical solution a fault-free run
// would have. It returns false when the run was canceled before the
// window could be decided; the caller must then stop without consuming
// its result.
func (r *solveRun) solveBatchFT(b *Batch, reset func()) bool {
	res := &b.result
	attempts := 0
	var err error
	for try := 0; try <= maxRetries; try++ {
		if try > 0 {
			r.journal.EmitRetry(res.Window, res.Worker, try, errString(err), isPanicErr(err))
			reset()
		}
		attempts++
		err = r.attempt(b, PointSolveWindow)
		if err == nil {
			if b.truncated {
				// Cancellation broke the convergence loop mid-window; the
				// staged result is partial, so the window is undecided.
				return false
			}
			res.Status = WindowOK
			if attempts > 1 {
				res.Status = WindowRetried
			}
			res.Attempts = attempts
			return true
		}
		if r.canceled() {
			return false
		}
	}
	reset()
	r.degradeBatch(b, attempts, isPanicErr(err))
	return !b.truncated
}

// degradeBatch re-solves a freshly re-staged window on the serial loop
// — the simplest execution path, with no nested parallelism —
// quarantining it only if it fails even there. It keeps the batch's
// update (Batch.update), so a degraded window of a forked plan still
// sweeps Jacobi over the same chunks, and writes the healthy window's
// bits.
func (r *solveRun) degradeBatch(b *Batch, priorAttempts int, panicked bool) {
	attempts := priorAttempts + 1
	loop := b.loop
	b.loop = serialLoop
	err := r.attempt(b, PointSolveDegrade)
	b.loop = loop
	res := &b.result
	if err != nil {
		r.quarantine(res, attempts, err, panicked || isPanicErr(err))
		return
	}
	res.Status = WindowDegraded
	res.Attempts = attempts
	r.journal.EmitDegrade(res.Window, res.Worker, panicked)
}

// quarantine marks res terminally failed with a *WindowError.
func (r *solveRun) quarantine(res *WindowResult, attempts int, cause error, panicked bool) {
	res.Status = WindowFailed
	res.Attempts = attempts
	res.Err = &WindowError{Window: res.Window, Attempts: attempts, Panicked: panicked, Err: cause}
	res.Converged = false
	r.journal.EmitQuarantine(res.Window, res.Worker, attempts, errString(cause), panicked)
}

// checkpointWindow flushes a decided window and its dense rank vector x
// to the checkpoint store. Failed windows are not written (a resumed
// run gets another chance at them) and write errors never fail the run
// — the window's result is already in memory; a resume would re-solve it.
func (r *solveRun) checkpointWindow(res *WindowResult, x []float64) {
	if r.ckpt == nil || res.Status == WindowFailed || res.Status == WindowResumed {
		return
	}
	cw := &checkpoint.Window{
		Index:           res.Window,
		Iterations:      res.Iterations,
		Converged:       res.Converged,
		UsedPartialInit: res.UsedPartialInit,
		ActiveVertices:  res.ActiveVertices,
		FinalResidual:   res.FinalResidual,
		WallSeconds:     res.WallSeconds,
		Ranks:           x,
	}
	r.journal.EmitCheckpointWrite(res.Window, errString(r.ckpt.store.WriteWindow(cw)))
}

// restoreWindow restores window w of mw from the resume checkpoint,
// if it holds w, and reports whether it did, with the window's dense
// rank vector. The restored ranks are the original run's exact bits, so
// the successor warm-starts from the same vector it would have seen
// live. The vector belongs to the checkpoint state, not the unit.
func (r *solveRun) restoreWindow(mw *tcsr.MultiWindow, w, wid int) (x []float64, ok bool) {
	if r.ckpt == nil || r.ckpt.resumed[w] == nil {
		return nil, false
	}
	cw := r.ckpt.resumed[w]
	res := &r.results[w]
	*res = WindowResult{
		ActiveVertices: cw.ActiveVertices,
		FinalResidual:  cw.FinalResidual,
		ErrorBound:     errorBound(r.plan.Cfg.Opts.Alpha, cw.FinalResidual),
		WallSeconds:    cw.WallSeconds,
		Worker:         wid,
		Status:         WindowResumed,
	}
	res.Window, res.Iterations, res.Converged, res.UsedPartialInit = cw.Index, cw.Iterations, cw.Converged, cw.UsedPartialInit
	res.Vertices, res.Ranks = denseRankEntries(mw, cw.Ranks)
	r.journal.EmitCheckpointResume(w)
	r.windowDecided(res)
	r.completed.Add(1)
	return cw.Ranks, true
}
