package core

import "pmpr/internal/tcsr"

// Batch is the unit of kernel execution: one window of a multi-window
// graph, its optional warm-start vector, and the scratch lease all
// working memory is drawn from. The solve driver stages batches and
// owns the convergence loop (runBatch); the kernel only reads the
// staged fields and keeps its per-window working set in kern. The
// contract with runBatch:
//
//	Init      stages the window (run index, active list, starting
//	          vector, bound loop bodies); a window with no active vertex
//	          is converged before its first sweep.
//	Iterate   advances the rank vector by one PageRank sweep.
//	Residual  returns the L1 delta of the last Iterate.
//	Finalize  hands the rank vector to the result and returns all
//	          other working memory to the scratch lease. It runs
//	          unconditionally — after convergence, MaxIter exhaustion,
//	          or a cancellation break — so the arena stays consistent
//	          on every exit path.
type Batch struct {
	mw      *tcsr.MultiWindow
	view    tcsr.SolveView // the window, in mw
	init    []float64      // predecessor ranks; nil = uniform start
	result  WindowResult   // filled by Init, runBatch and Finalize
	cfg     *Config
	scratch *scratchBuf // the lease: goroutine-confined free lists
	loop    forLoop     // serial or worker-forked vertex loop

	// truncated is set by runBatch when the convergence loop broke on
	// cancellation: the staged result may be mid-iteration, so the
	// batch is undecided — solveBatchFT returns false and the driver
	// must not consume, count, or checkpoint its result (the run is
	// returning a *CanceledError and a resume re-solves it).
	truncated bool

	// kern is the kernel's per-window working set (vectors, run index,
	// bound loop bodies); Init fills it and Finalize clears it.
	kern spmvKernel
}
