package core

import (
	"math"

	"pmpr/internal/sched"
)

// spmvKernel advances one window's PageRank vector by sparse
// matrix-vector sweeps over its multi-window graph — the engine's only
// kernel. Paper Sec. 4.4 batches K windows per sweep to save memory
// traffic; here a multi-window graph fits in cache, so one window per
// sweep, warm-started from its predecessor, is faster (EXPERIMENTS.md
// "Width K — deleted").
//
// Edge liveness comes from the chain's run index (see chainIndex),
// brought to the window once in Init: a sweep walks only the in-runs
// live in the window, reading no timestamps. Vertex activity is
// compacted the same way: list holds the window's active vertices, and
// every pass walks only list, so a sweep costs what the window sees,
// not what the multi-window graph holds. Entries of x, y and z outside
// list start at zero and stay zero. The index, degrees, list, z and
// lanes belong to the unit's workspace; the window's rank-class
// vectors (x, and Jacobi's y) come from its stash, and the rank vector
// stays checked out (solveUnit recycles it once consumed).
//
// A sweep runs one of two updates, chosen by the plan
// (Batch.gaussSeidel):
//
//   - Gauss–Seidel, when the plan does not fork vertex loops: one
//     serial in-place pass (sweepInPlace) that reads each in-neighbour's
//     value from the current sweep once it has been updated. It does
//     not preserve mass on its own; its teleport term corrects the mass
//     the previous sweep left (see sweepInPlace), and Finalize
//     renormalizes the active entries once.
//   - Jacobi, when it does: pass 1 scales ranks by inverse out-degree,
//     pass 2 pulls into y, and the vectors swap. The update preserves
//     mass up to rounding. Cross-leaf reductions use lane-indexed slots
//     summed serially between passes, so the leaves of the steady-state
//     iteration loop neither allocate nor touch atomics.
//
// The value lives in Batch.kern; x and y swap through it, so the bound
// passes track them for free.
type spmvKernel struct {
	invdeg       []float64
	list         []int32 // the window's active vertices, ascending
	runs         runIndex
	runsVisited  int64 // runs Init inserted into or removed from the chain's index
	x, y, z      []float64
	laneDangling []float64
	laneDelta    []float64
	base         float64 // the teleport-plus-dangling term of this sweep
	pass1, pass2 sched.Body

	// The Gauss–Seidel pass's state: whether it runs, and what its last
	// sweep (or Init) left — the active mass, the dangling mass, and the
	// L1 change of the rank vector.
	inPlace               bool
	mass, dangling, delta float64
}

// Init brings the chain's index to the window (chainIndex.seek: the
// window's enter and leave deltas, or a rebuild) and takes its run
// index, inverse out-degrees and active list, then stages the starting
// vector over the list (Eq. 4 where a predecessor vector is supplied,
// uniform otherwise). For the Gauss–Seidel update it then scales the
// vector by inverse out-degree and sums its mass once (stageInPlace);
// for Jacobi it draws y and binds the two sweep passes.
// It records the active count in the result; a window with no active
// vertex is converged before its first sweep.
func (s *spmvKernel) Init(b *Batch) {
	n := int(b.mw.NumLocal())
	ws, loop := b.ws, b.loop
	retained := !b.cfg.DiscardRanks

	ix := &b.chain
	s.runsVisited = ix.seek(b.w)
	s.runs, s.invdeg, s.list = ix.runIndex, ix.invdeg, ix.list
	list := s.list
	listed := len(list)
	b.result.ActiveVertices = int32(listed)
	b.result.Converged = listed == 0

	// Initialization: Eq. 4 where a predecessor vector is supplied,
	// uniform otherwise.
	x := ws.rank(n, retained)
	// z is sized (zeroed) per window, not per unit: a run may come from
	// a vertex outside the list when the stored graph is not symmetric,
	// and its z must read zero, not a previous window's value.
	s.x, s.z = x, size(ws, &ws.z, n)
	init := b.init
	var scale float64
	partial := false
	if init != nil && listed > 0 {
		laneSharedN, laneSharedSum := ws.laneN, ws.laneSum
		clear(laneSharedN)
		clear(laneSharedSum)
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
		for l := range laneSharedN {
			sh += laneSharedN[l]
			sm += laneSharedSum[l]
		}
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
	if b.gaussSeidel {
		s.inPlace = true
		s.stageInPlace()
		return
	}
	s.y = ws.rank(n, retained)
	s.laneDangling, s.laneDelta = ws.laneD, ws.laneR
	s.bindPasses(1 - b.cfg.Opts.Alpha)
}

// stageInPlace prepares the Gauss–Seidel pass: z = x·invdeg, and the
// active and dangling mass of x.
func (s *spmvKernel) stageInPlace() {
	x, z, invdeg := s.x, s.z, s.invdeg
	var mass, dangling float64
	for _, v := range s.list {
		xv, id := x[v], invdeg[v]
		z[v] = xv * id
		mass += xv
		if id == 0 {
			dangling += xv
		}
	}
	s.mass, s.dangling = mass, dangling
}

// sweepInPlace runs one Gauss–Seidel sweep: for each active vertex in
// list order it pulls along the indexed runs, where z already holds the
// values this sweep has updated, and writes the new value to x and z
// in place.
//
// The teleport term corrects mass. With S the active mass and d the
// dangling mass the previous sweep left, base = (1 − damp·(S − d)) / n:
// the teleport share plus whatever mass the non-dangling pull will not
// deliver. At S = 1 it equals Jacobi's α/n + damp·d/n, so the fixed
// point is PageRank's. A base of α/n + damp·d/n alone would leave a
// mass error that decays only at 1 − α per sweep.
func (s *spmvKernel) sweepInPlace(damp float64) {
	x, z, invdeg := s.x, s.z, s.invdeg
	runRow, runEnd, runCol := s.runs.row, s.runs.end, s.runs.col
	base := (1 - damp*(s.mass-s.dangling)) / float64(len(s.list))
	var mass, dangling, delta float64
	for _, v := range s.list {
		var acc float64
		for _, c := range runCol[runRow[v]:runEnd[v]] {
			acc += z[c]
		}
		nv := base + damp*acc
		delta += math.Abs(nv - x[v])
		x[v] = nv
		id := invdeg[v]
		z[v] = nv * id
		mass += nv
		if id == 0 {
			dangling += nv
		}
	}
	s.mass, s.dangling, s.delta = mass, dangling, delta
}

// bindPasses binds the two Jacobi sweep passes. Each leaf keeps its
// lane's sum in a register, starting from the lane's current value.
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

// Iterate runs one sweep: the in-place Gauss–Seidel pass, or Jacobi's
// pass 1, the dangling reduction, pass 2, and the vector swap.
func (s *spmvKernel) Iterate(b *Batch) {
	alpha := b.cfg.Opts.Alpha
	if s.inPlace {
		s.sweepInPlace(1 - alpha)
		return
	}
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

// Residual returns the L1 change of the rank vector in the last sweep:
// the Gauss–Seidel pass's sum, or Jacobi's lane deltas summed.
func (s *spmvKernel) Residual() float64 {
	if s.inPlace {
		return s.delta
	}
	var delta float64
	for _, ld := range s.laneDelta {
		delta += ld
	}
	return delta
}

// Finalize hands x over as the window's rank vector and stashes
// Jacobi's other vector; everything else stays with the workspace. A
// Gauss–Seidel vector is first renormalized once, so its active
// entries sum to 1 as a Jacobi vector's do.
func (s *spmvKernel) Finalize(b *Batch) {
	if s.inPlace {
		if s.mass > 0 {
			inv := 1 / s.mass
			for _, v := range s.list {
				s.x[v] *= inv
			}
		}
	} else {
		b.ws.recycle(s.y)
	}
	b.result.ranks = s.x
	*s = spmvKernel{}
}
