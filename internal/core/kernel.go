package core

import "pmpr/internal/tcsr"

// Batch is the unit of kernel execution: up to the plan's batch width
// of windows of one multi-window graph, their optional warm-start
// vectors, and the scratch lease all working memory is drawn from. The
// solve drivers assemble batches and own the convergence loop
// (runBatch); the kernel only reads the staged fields and keeps its
// per-batch working set in kern. The contract with runBatch:
//
//	Init      stages the batch (window state, starting vectors, bound
//	          loop bodies) and marks the non-empty window slots live.
//	Iterate   advances every live slot by one PageRank sweep.
//	Residual  returns a slot's L1 delta from the last Iterate.
//	Finalize  extracts each slot's rank vector into its result and
//	          returns all working memory to the scratch lease. It runs
//	          unconditionally — after convergence, MaxIter exhaustion,
//	          or a cancellation break — so the arena stays consistent
//	          on every exit path.
type Batch struct {
	mw      *tcsr.MultiWindow
	views   []tcsr.SolveView // one per slot, all windows of mw
	inits   [][]float64      // per-slot predecessor ranks; nil = uniform start
	results []WindowResult   // per-slot results, filled by Init/Finalize
	cfg     *Config
	scratch *scratchBuf // the lease: goroutine-confined free lists
	loop    forLoop     // serial or worker-forked vertex loop

	// live is maintained by runBatch: Init marks slots live, and runBatch
	// retires them as they converge. Iterate turns it into the slot mask
	// the passes read to skip finished windows mid-sweep.
	live []int

	// truncated is set by runBatch when the convergence loop broke on
	// cancellation: the staged results may be mid-iteration, so the
	// batch is undecided — solveBatchFT returns false and the driver
	// must not consume, count, or checkpoint its results (the run is
	// returning a *CanceledError and a resume re-solves them).
	truncated bool

	// kern is the kernel's per-batch working set (vectors, run index,
	// bound loop bodies); Init fills it and Finalize clears it.
	kern spmmKernel
}

// width returns the number of window slots staged in the batch.
func (b *Batch) width() int { return len(b.views) }

// markLive adds slot to the live set; called by spmmKernel.Init for
// every slot with at least one active vertex.
func (b *Batch) markLive(slot int) {
	b.live = append(b.live, slot)
}
