// This file implements the solve stage's per-window fault tolerance
// and checkpoint/resume plumbing. The driver in solve.go stages each
// batch and hands it to solveBatchFT, which owns the failure ladder:
//
//	attempt   — run the batch under recover(), so a kernel panic (or a
//	            sched.PanicError propagated from a nested vertex loop)
//	            becomes an ordinary error instead of killing the run
//	retry     — re-stage and re-run at once, up to maxRetries times; a
//	            retried attempt sees inputs identical to the first, so a
//	            transient fault leaves no trace in the results
//	degrade   — solve each window of the batch alone at width 1 on the
//	            serial loop, the simplest execution path available
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

// maxRetries is how many times a failed window or batch solve is
// re-attempted at the plan's batch width before it degrades. Retries
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
	// PointSolveWindow fires before each batch attempt of a width-1
	// plan, where a batch is one window.
	PointSolveWindow = "core.solve.window"
	// PointSolveBatch fires before each batch attempt of a plan wider
	// than 1.
	PointSolveBatch = "core.solve.batch"
	// PointSolveDegrade fires before each serial-fallback attempt.
	PointSolveDegrade = "core.solve.degrade"
	// PointPublish fires at the top of PublishStage.Run.
	PointPublish = "core.publish"
)

func init() {
	fault.RegisterPoint(PointBuild, "build stage entry (temporal CSR construction)")
	fault.RegisterPoint(PointPlan, "plan stage entry (batch width, batch layout)")
	fault.RegisterPoint(PointSolveWindow, "batch solve attempt, width-1 plans (one window per batch)")
	fault.RegisterPoint(PointSolveBatch, "batch solve attempt, plans wider than 1")
	fault.RegisterPoint(PointSolveDegrade, "serial width-1 degrade attempt")
	fault.RegisterPoint(PointPublish, "publish stage entry (series/report assembly)")
}

// ckptRun is the per-engine checkpoint state the solve stage consults:
// the store decided windows are flushed to, and the windows a resumed
// run restores instead of solving.
type ckptRun struct {
	store   *checkpoint.Store
	resumed map[int]*checkpoint.Window
}

// attempt runs one staged batch with panic isolation: a panic
// anywhere in the kernel (including a sched.PanicError rethrown from a
// nested vertex loop) is converted into a *RecoveredPanic error. The
// injection point fires before the kernel, so armed faults count solve
// attempts.
func (r *solveRun) attempt(b *Batch, point string) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = recoveredError(rec)
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

// solveBatchFT runs one staged batch through the failure ladder and
// stamps every slot's Status, Attempts, and (for quarantined slots)
// Err. reset must re-stage the batch to the exact state it had before
// the first attempt — same views, same warm-start vectors, zeroed
// results — so a retried attempt computes the identical solution a
// fault-free run would have. It returns false when the run was
// canceled before the batch could be decided; the caller must then
// stop without consuming the batch's results.
func (r *solveRun) solveBatchFT(b *Batch, reset func(), point string) bool {
	attempts := 0
	var err error
	for try := 0; try <= maxRetries; try++ {
		if try > 0 {
			if r.journal != nil {
				panicked := isPanicErr(err)
				for s := range b.results {
					r.journal.EmitRetry(b.results[s].Window, b.results[s].Worker, try, errString(err), panicked)
				}
			}
			reset()
		}
		attempts++
		err = r.attempt(b, point)
		if err == nil {
			if b.truncated {
				// Cancellation broke the convergence loop mid-batch; the
				// staged results are partial, so the batch is undecided.
				return false
			}
			status := WindowOK
			if attempts > 1 {
				status = WindowRetried
			}
			for s := range b.results {
				b.results[s].Status = status
				b.results[s].Attempts = attempts
			}
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

// degradeBatch re-solves each window of a freshly re-staged batch
// alone at width 1 on the serial loop — the simplest execution path,
// with no batching and no nested parallelism — quarantining only the slots
// that fail even there. Allocation here is fine: degrade is the cold
// path of a cold path.
func (r *solveRun) degradeBatch(b *Batch, priorAttempts int, panicked bool) {
	attempts := priorAttempts + 1
	live := make([]int, 0, 1)
	for s := range b.views {
		db := Batch{
			cfg:     b.cfg,
			scratch: b.scratch,
			loop:    serialLoop,
			mw:      b.mw,
			views:   b.views[s : s+1],
			inits:   b.inits[s : s+1],
			results: b.results[s : s+1],
			live:    live[:0],
		}
		res := &b.results[s]
		serr := r.attempt(&db, PointSolveDegrade)
		if db.truncated {
			// Cancellation cut this slot's convergence loop; taint the
			// outer batch so the driver does not checkpoint it.
			b.truncated = true
		}
		if serr != nil {
			r.quarantine(res, attempts, serr, panicked || isPanicErr(serr))
			continue
		}
		res.Status = WindowDegraded
		res.Attempts = attempts
		r.journal.EmitDegrade(res.Window, res.Worker, panicked)
	}
}

// quarantine marks res terminally failed with a *WindowError.
func (r *solveRun) quarantine(res *WindowResult, attempts int, cause error, panicked bool) {
	res.Status = WindowFailed
	res.Attempts = attempts
	res.Err = &WindowError{Window: res.Window, Attempts: attempts, Panicked: panicked, Err: cause}
	res.Converged = false
	res.ranks = nil
	r.journal.EmitQuarantine(res.Window, res.Worker, attempts, errString(cause), panicked)
}

// restoreResult fills res from a checkpointed window. The restored
// ranks are the original run's exact bits, so successors warm-start
// from the same vectors they would have seen live.
func restoreResult(res *WindowResult, cw *checkpoint.Window, mw *tcsr.MultiWindow, wid int) {
	*res = WindowResult{
		Window:          cw.Index,
		Iterations:      cw.Iterations,
		Converged:       cw.Converged,
		ActiveVertices:  cw.ActiveVertices,
		UsedPartialInit: cw.UsedPartialInit,
		FinalResidual:   cw.FinalResidual,
		WallSeconds:     cw.WallSeconds,
		Worker:          wid,
		Status:          WindowResumed,
		ranks:           cw.Ranks,
		mw:              mw,
	}
}

// checkpointWindow flushes a decided window to the checkpoint store.
// Failed windows are not written (a resumed run gets another chance at
// them) and write errors never fail the run — the window's result is
// already in memory; a resume would simply re-solve it.
func (r *solveRun) checkpointWindow(res *WindowResult) {
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
		Ranks:           res.ranks,
	}
	r.journal.EmitCheckpointWrite(res.Window, errString(r.ckpt.store.WriteWindow(cw)))
}

// restoreBatch restores batch j of unit u when every one of its
// windows is checkpointed; a partially checkpointed batch re-solves
// whole (its checkpointed members are simply overwritten), keeping the
// batch the unit of work. Restored vectors are staged into ranks
// (indexed by window offset from u.RegionStart[0]) so the next batch
// warm-starts from them.
func (r *solveRun) restoreBatch(u *SolveUnit, j, wid int, ranks [][]float64) bool {
	if r.ckpt == nil {
		return false
	}
	mw := u.MW
	for reg := 0; reg < u.K; reg++ {
		off := u.RegionStart[reg] + j
		if off >= u.RegionStart[reg+1] {
			continue
		}
		if r.ckpt.resumed[mw.WinLo+off] == nil {
			return false
		}
	}
	for reg := 0; reg < u.K; reg++ {
		off := u.RegionStart[reg] + j
		if off >= u.RegionStart[reg+1] {
			continue
		}
		w := mw.WinLo + off
		cw := r.ckpt.resumed[w]
		restoreResult(&r.results[w], cw, mw, wid)
		ranks[off-u.RegionStart[0]] = cw.Ranks
		r.journal.EmitCheckpointResume(w)
		r.windowDecided(&r.results[w])
		r.completed.Add(1)
	}
	return true
}
