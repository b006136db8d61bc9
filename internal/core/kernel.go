package core

import "pmpr/internal/tcsr"

// Batch is the unit of kernel execution: one window of a multi-window
// graph, its optional warm-start vector, the chain's run index, and the
// unit's workspace all working memory is drawn from. The solve driver
// stages batches and owns the convergence loop (runBatch); the kernel
// only reads the staged fields and keeps its per-window working set in
// kern. The contract with runBatch:
//
//	Init      stages the window (brings the chain's index to it, then
//	          the starting vector, and under conjugate gradient peels
//	          it to its 2-core); a window with no active vertex, or a
//	          forest the peel solved, is decided before its first
//	          iteration.
//	Iterate   advances the rank vector by one iteration of the update.
//	Residual  returns what the stop test compares with the tolerance:
//	          the last sweep's L1 delta, or CG's scaled residual norm.
//	Finalize  hands the rank vector to the batch (x). It runs
//	          unconditionally — after convergence, MaxIter exhaustion,
//	          or a cancellation break — so the workspace stays
//	          consistent on every exit path.
type Batch struct {
	mw     *tcsr.MultiWindow
	w      int          // the global window
	init   []float64    // predecessor ranks; nil = uniform start
	result WindowResult // filled by Init and runBatch
	x      []float64    // the dense rank vector Finalize hands over
	cfg    *Config
	ws     *workspace // the unit's working memory
	loop   forLoop    // serial or worker-forked loop over Jacobi's chunks

	// update is the plan's update (SolvePlan.Update), which solveUnit
	// copies here: Gauss–Seidel and Jacobi sweeps, the latter over fixed
	// chunks on loop, or conjugate gradient. The degrade rung swaps loop
	// but keeps the update, so a degraded window solves with the same
	// update, and the same chunks, as a healthy one.
	update string

	// truncated is set by runBatch when the convergence loop broke on
	// cancellation: the staged result may be mid-iteration, so the
	// batch is undecided — solveBatchFT returns false and the driver
	// must not consume, count, or checkpoint its result (the run is
	// returning a *CanceledError and a resume re-solves it).
	truncated bool

	// chain is the unit's run index, degrees and active list, carried
	// from window to window; solveUnit opens it, Init seeks it to w,
	// and a panicked attempt invalidates it.
	chain chainIndex

	// kern is the kernel's per-window working set (vectors and sums);
	// Init fills it and Finalize clears it, keeping its chunk body.
	kern spmvKernel
}
