package core

import (
	"math"
	"sync/atomic"

	"pmpr/internal/sched"
	"pmpr/internal/tcsr"
)

// spmvKernel advances one window's PageRank vector by sparse
// matrix-vector sweeps over its multi-window graph — the engine's only
// kernel. Paper Sec. 4.4 batches K windows per sweep to save memory
// traffic; here a multi-window graph fits in cache, so one window per
// sweep, warm-started from its predecessor, is faster (EXPERIMENTS.md
// "Width K — deleted").
//
// Edge liveness is resolved once per window into a run index (see
// runIndex): a sweep walks only the in-runs live in the window, reading
// no timestamps. Vertex activity is compacted the same way: list holds
// the window's active vertices, and both passes walk only list, so a
// sweep costs what the window sees, not what the multi-window graph
// holds. Entries of x, y and z outside list start at zero and stay
// zero. Working memory is drawn from the batch's scratch lease and
// returned in Finalize; only the rank vector stays checked out
// (solveUnit recycles it once consumed). Cross-leaf reductions use
// lane-indexed slots summed serially between passes, so the leaves of
// the steady-state iteration loop neither allocate nor touch atomics.
//
// The value lives in Batch.kern; x and y swap through it, so the bound
// passes track them for free.
type spmvKernel struct {
	invdeg       []float64
	list         []int32 // the window's active vertices, ascending
	runs         runIndex
	runsVisited  int64 // stored runs Init walked
	x, y, z      []float64
	laneDangling []float64
	laneDelta    []float64
	base         float64 // the teleport-plus-dangling term of this sweep
	pass1, pass2 sched.Body
}

// Init builds the window's run index, derives out-degrees and the
// active list from it, stages the starting vector (Eq. 4 where a
// predecessor vector is supplied, uniform otherwise) and binds the two
// sweep passes. It records the active count in the result; a window
// with no active vertex is converged before its first sweep.
func (s *spmvKernel) Init(b *Batch) {
	mw := b.mw
	n := int(mw.NumLocal())
	sb, loop := b.scratch, b.loop
	lanes := sb.lanes()
	view := b.view

	runs := buildRunIndex(mw, view, loop, sb)
	s.runs = runs
	runRow, runEnd := runs.row, runs.end

	// Inverse out-degrees. A symmetrized graph's out-runs are its
	// in-runs, so a vertex's degree is its indexed run count; only a
	// directed graph walks its out-runs against the view.
	invdeg := sb.getF64(n)
	aliased := mw.OutColAliased()
	var walked atomic.Int64 // out-runs, added once per leaf
	loop(n, func(_ *sched.Worker, lo, hi int) {
		var leafWalked int64
		for u := lo; u < hi; u++ {
			d := float64(runEnd[u] - runRow[u])
			if !aliased {
				d = 0
				i, end := mw.OutRow[u], mw.OutRow[u+1]
				for i < end {
					j := i + 1
					c := mw.OutCol[i]
					for j < end && mw.OutCol[j] == c {
						j++
					}
					if tcsr.RunActive(mw.OutTime[i:j], view.Ts, view.Te) {
						d++
					}
					leafWalked++
					i = j
				}
			}
			if d > 0 {
				invdeg[u] = 1 / d
			}
		}
		walked.Add(leafWalked)
	})
	s.invdeg = invdeg
	s.runsVisited = runs.visited + walked.Load()

	// The active list: vertices with a live in-run or out-run.
	list := sb.getI32(n)
	listed := 0
	for v := 0; v < n; v++ {
		if runEnd[v] > runRow[v] || invdeg[v] > 0 {
			list[listed] = int32(v)
			listed++
		}
	}
	list = list[:listed]
	s.list = list
	b.result.ActiveVertices = int32(listed)
	b.result.Converged = listed == 0

	// Initialization: Eq. 4 where a predecessor vector is supplied,
	// uniform otherwise.
	x := sb.getF64(n)
	s.x, s.y, s.z = x, sb.getF64(n), sb.getF64(n)
	s.laneDangling, s.laneDelta = sb.getF64(lanes), sb.getF64(lanes)
	init := b.init
	var scale float64
	partial := false
	if init != nil && listed > 0 {
		laneSharedN := sb.getI64(lanes)
		laneSharedSum := sb.getF64(lanes)
		loop(listed, func(wk *sched.Worker, lo, hi int) {
			lane := laneOf(wk)
			cnt, sum := laneSharedN[lane], laneSharedSum[lane]
			for _, v := range list[lo:hi] {
				if init[v] > 0 {
					cnt++
					sum += init[v]
				}
			}
			laneSharedN[lane], laneSharedSum[lane] = cnt, sum
		})
		var sh int64
		var sm float64
		for l := 0; l < lanes; l++ {
			sh += laneSharedN[l]
			sm += laneSharedSum[l]
		}
		sb.putI64(laneSharedN)
		sb.putF64(laneSharedSum)
		if sh > 0 && sm > 0 {
			scale = float64(sh) / float64(listed) / sm
			partial = true
			b.result.UsedPartialInit = true
		}
	}
	uniform := 1 / float64(listed)
	loop(listed, func(_ *sched.Worker, lo, hi int) {
		for _, v := range list[lo:hi] {
			if partial && init[v] > 0 {
				x[v] = init[v] * scale
			} else {
				x[v] = uniform
			}
		}
	})
	s.bindPasses(1 - b.cfg.Opts.Alpha)
}

// bindPasses binds the two sweep passes. Each leaf keeps its lane's sum
// in a register, starting from the lane's current value.
//
// It must not be inlined: the passes' copies inside Init (a big
// function) lose inlining of math.Abs and run about 1.3× slower.
//
//go:noinline
func (s *spmvKernel) bindPasses(damp float64) {
	invdeg, list := s.invdeg, s.list
	runRow, runEnd, runCol, z := s.runs.row, s.runs.end, s.runs.col, s.z
	laneDangling, laneDelta := s.laneDangling, s.laneDelta
	// Pass 1 (by source): scale ranks by inverse out-degree and collect
	// dangling mass.
	s.pass1 = func(wk *sched.Worker, lo, hi int) {
		x := s.x
		d := laneDangling[laneOf(wk)]
		for _, u := range list[lo:hi] {
			z[u] = x[u] * invdeg[u]
			if invdeg[u] == 0 {
				d += x[u]
			}
		}
		laneDangling[laneOf(wk)] = d
	}
	// Pass 2 (by target): pull contributions along the indexed runs.
	s.pass2 = func(wk *sched.Worker, lo, hi int) {
		x, y := s.x, s.y
		base := s.base
		delta := laneDelta[laneOf(wk)]
		for _, v := range list[lo:hi] {
			var acc float64
			for _, c := range runCol[runRow[v]:runEnd[v]] {
				acc += z[c]
			}
			nv := base + damp*acc
			delta += math.Abs(nv - x[v])
			y[v] = nv
		}
		laneDelta[laneOf(wk)] = delta
	}
}

// Iterate runs one sweep: pass 1, the dangling reduction, pass 2, and
// the vector swap.
func (s *spmvKernel) Iterate(b *Batch) {
	alpha := b.cfg.Opts.Alpha
	clear(s.laneDangling)
	clear(s.laneDelta)
	b.loop(len(s.list), s.pass1)
	var d float64
	for _, ld := range s.laneDangling {
		d += ld
	}
	invNA := 1 / float64(len(s.list))
	s.base = alpha*invNA + (1-alpha)*d*invNA
	b.loop(len(s.list), s.pass2)
	s.x, s.y = s.y, s.x
}

// Residual sums the lane deltas of the last sweep: the L1 change of the
// rank vector.
func (s *spmvKernel) Residual() float64 {
	var delta float64
	for _, ld := range s.laneDelta {
		delta += ld
	}
	return delta
}

// Finalize hands x over as the window's rank vector and returns all
// other working memory.
func (s *spmvKernel) Finalize(b *Batch) {
	sb := b.scratch
	b.result.ranks = s.x
	sb.putF64(s.y)
	sb.putF64(s.z)
	sb.putF64(s.invdeg)
	sb.putI32(s.list)
	s.runs.release(sb)
	sb.putF64(s.laneDangling)
	sb.putF64(s.laneDelta)
	*s = spmvKernel{}
}
