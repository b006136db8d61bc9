package core

import "pmpr/internal/tcsr"

// Kernel is the iteration engine of the solve stage. The two
// implementations (spmv, spmm) form a closed set: the plan stage
// resolves one with Config.Kernel.Kernel(), so the solve drivers
// contain no kernel-specific branches — the window loop, warm-start
// chaining, tracing, validation, and convergence control are written
// once in solveRun and shared by every kernel.
//
// A Kernel is stateless and safe for concurrent use; per-solve state
// lives in the Batch it is handed. The contract with runBatch:
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
type Kernel interface {
	// BatchWidth is the number of windows one batch of this kernel
	// advances under cfg: 1 for SpMV, VectorLen for SpMM. Width 1
	// routes through the window-chain driver, wider kernels through the
	// region-batched multi-window driver.
	BatchWidth(cfg *Config) int
	// Init stages the batch and marks live slots via Batch.markLive.
	Init(b *Batch)
	// Iterate advances all live slots by one sweep.
	Iterate(b *Batch)
	// Residual returns slot's L1 residual from the last Iterate.
	Residual(b *Batch, slot int) float64
	// Finalize publishes rank vectors and releases working memory.
	Finalize(b *Batch)
}

// Batch is the unit of kernel execution: up to BatchWidth windows of
// one multi-window graph, their optional warm-start vectors, and the
// scratch lease all working memory is drawn from. The solve drivers
// assemble batches and own the convergence loop; kernels only read the
// staged fields and park their per-solve state in state.
type Batch struct {
	mw      *tcsr.MultiWindow
	views   []tcsr.SolveView // one per slot, all windows of mw
	inits   [][]float64      // per-slot predecessor ranks; nil = uniform start
	results []WindowResult   // per-slot results, filled by Init/Finalize
	cfg     *Config
	scratch *scratchBuf // the lease: goroutine-confined free lists
	loop    forLoop     // serial or worker-forked vertex loop

	// live / isLive are maintained by runBatch: Init marks slots live,
	// the driver retires them as they converge. Kernel passes read both
	// (hoisted at leaf start) to skip finished windows mid-sweep.
	live   []int
	isLive []bool

	// truncated is set by runBatch when the convergence loop broke on
	// cancellation: the staged results may be mid-iteration, so the
	// batch is undecided — solveBatchFT returns false and the driver
	// must not consume, count, or checkpoint its results (the run is
	// returning a *CanceledError and a resume re-solves them).
	truncated bool

	// state is the kernel's per-batch working set (vectors, bound loop
	// bodies); one boxed allocation per batch, amortized over its
	// iterations.
	state any
}

// width returns the number of window slots staged in the batch.
func (b *Batch) width() int { return len(b.views) }

// markLive adds slot to the live set; called by Kernel.Init for every
// slot with at least one active vertex.
func (b *Batch) markLive(slot int) {
	b.live = append(b.live, slot)
	b.isLive[slot] = true
}

// Kernel returns the implementation of k, or nil for an id outside
// the enum; Config.Check rejects such ids before any stage runs.
func (k KernelID) Kernel() Kernel {
	switch k {
	case SpMV:
		return spmvKernel{}
	case SpMM:
		return spmmKernel{}
	default:
		return nil
	}
}
