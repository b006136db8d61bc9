package core

import (
	"math"

	"pmpr/internal/sched"
	"pmpr/internal/tcsr"
)

// windowState holds the per-window quantities a PageRank iteration
// needs: inverse out-degrees (0 for dangling or absent vertices),
// activity flags, and |V_i|. The slices are scratch-arena buffers;
// release them with releaseWindowState when the solve is done.
type windowState struct {
	invdeg []float64
	active []bool
	na     int32
}

// computeWindowState fills the state for the window of view with
// buffers drawn from sb. The degree pass runs over the out-CSR
// partitioned by source vertex; the activity pass runs over the in-CSR
// partitioned by target vertex, so both are race-free under loop.
// Cross-leaf counting reduces through per-lane slots instead of an
// atomic, keeping the leaves allocation- and contention-free.
func computeWindowState(view tcsr.SolveView, directed bool, loop forLoop, sb *scratchBuf) windowState {
	mw := view.MW
	n := int(mw.NumLocal())
	ts, te := view.Ts, view.Te
	st := windowState{
		invdeg: sb.getF64(n),
		active: sb.getBool(n),
	}
	loop(n, func(_ *sched.Worker, lo, hi int) {
		for u := lo; u < hi; u++ {
			start, end := mw.OutRow[u], mw.OutRow[u+1]
			deg := 0
			i := start
			for i < end {
				j := i + 1
				for j < end && mw.OutCol[j] == mw.OutCol[i] {
					j++
				}
				if tcsr.RunActive(mw.OutTime[i:j], ts, te) {
					deg++
				}
				i = j
			}
			if deg > 0 {
				st.invdeg[u] = 1 / float64(deg)
			}
		}
	})
	laneNA := sb.getI32(sb.lanes())
	loop(n, func(wk *sched.Worker, lo, hi int) {
		var cnt int32
		for v := lo; v < hi; v++ {
			act := st.invdeg[v] > 0
			if !act && directed {
				// A vertex with only in-edges is active too; scan its
				// in-runs for one live edge.
				start, end := mw.InRow[v], mw.InRow[v+1]
				i := start
				for i < end && !act {
					j := i + 1
					for j < end && mw.InCol[j] == mw.InCol[i] {
						j++
					}
					act = tcsr.RunActive(mw.InTime[i:j], ts, te)
					i = j
				}
			}
			st.active[v] = act
			if act {
				cnt++
			}
		}
		laneNA[laneOf(wk)] += cnt
	})
	for _, c := range laneNA {
		st.na += c
	}
	sb.putI32(laneNA)
	return st
}

// releaseWindowState returns the state's buffers to the arena.
func releaseWindowState(sb *scratchBuf, st windowState) {
	sb.putF64(st.invdeg)
	sb.putBool(st.active)
}

// initVector fills x with the starting PageRank values: the partial
// initialization of Eq. 4 when prev is available, otherwise the uniform
// 1/|V_i| over active vertices. It reports whether partial
// initialization was actually used (it falls back to uniform when the
// windows share no active vertices).
func initVector(x, prev []float64, st windowState, loop forLoop, sb *scratchBuf) bool {
	n := len(x)
	if st.na == 0 {
		for v := range x {
			x[v] = 0
		}
		return false
	}
	uniform := 1 / float64(st.na)
	fillUniform := func(_ *sched.Worker, lo, hi int) {
		for v := lo; v < hi; v++ {
			if st.active[v] {
				x[v] = uniform
			} else {
				x[v] = 0
			}
		}
	}
	if prev == nil {
		loop(n, fillUniform)
		return false
	}
	// Eq. 4: shared vertices are scaled by |Vi ∩ Vi-1| / |Vi| and
	// renormalized by their previous mass; vertices new to the window
	// start at the uniform value, so the vector still sums to 1.
	lanes := sb.lanes()
	laneCnt := sb.getI64(lanes)
	laneSum := sb.getF64(lanes)
	loop(n, func(wk *sched.Worker, lo, hi int) {
		var cnt int64
		var sum float64
		for v := lo; v < hi; v++ {
			if st.active[v] && prev[v] > 0 {
				cnt++
				sum += prev[v]
			}
		}
		lane := laneOf(wk)
		laneCnt[lane] += cnt
		laneSum[lane] += sum
	})
	var shared int64
	var sum float64
	for l := 0; l < lanes; l++ {
		shared += laneCnt[l]
		sum += laneSum[l]
	}
	sb.putI64(laneCnt)
	sb.putF64(laneSum)
	if shared == 0 || sum <= 0 {
		loop(n, fillUniform)
		return false
	}
	scale := float64(shared) / float64(st.na) / sum
	loop(n, func(_ *sched.Worker, lo, hi int) {
		for v := lo; v < hi; v++ {
			switch {
			case !st.active[v]:
				x[v] = 0
			case prev[v] > 0:
				x[v] = prev[v] * scale
			default:
				x[v] = uniform
			}
		}
	})
	return true
}

// spmvKernel is the SpMV-style PageRank kernel: one window per batch,
// pulled along active in-runs. prev ranks, when staged by the driver,
// enable the partial initialization of Eq. 4. All working memory comes
// from the batch's scratch lease; only the rank vector stays checked
// out after Finalize (the driver recycles it once consumed). The
// iteration loop allocates nothing: both loop bodies are bound once in
// Init and cross-leaf sums reduce via lanes.
type spmvKernel struct{}

// spmvState is the kernel's per-batch working set. x and y live here
// (not in closure variables) so the swap at the end of each iteration
// retargets the passes through the state pointer for free.
type spmvState struct {
	st           windowState
	runs         runIndex
	x, y, z      []float64
	laneDangling []float64
	laneDelta    []float64
	base         float64
	invNA        float64
	pass1, pass2 sched.Body
	empty        bool
}

// BatchWidth is 1: SpMV advances one window at a time.
func (spmvKernel) BatchWidth(*Config) int { return 1 }

// Init computes the window state and run index, draws the iteration
// vectors, and binds the two passes.
func (spmvKernel) Init(b *Batch) {
	view := b.views[0]
	mw := view.MW
	n := int(mw.NumLocal())
	sb, loop := b.scratch, b.loop
	st := computeWindowState(view, b.cfg.Directed, loop, sb)
	res := &b.results[0]
	res.ActiveVertices = st.na
	s := &spmvState{st: st}
	b.state = s
	s.x = sb.getF64(n)
	if st.na == 0 {
		res.Converged = true
		s.empty = true
		return
	}
	res.UsedPartialInit = initVector(s.x, b.inits[0], st, loop, sb)

	s.y = sb.getF64(n)
	s.z = sb.getF64(n)
	lanes := sb.lanes()
	s.laneDangling = sb.getF64(lanes)
	s.laneDelta = sb.getF64(lanes)
	s.invNA = 1 / float64(st.na)

	s.runs = buildRunIndex(mw, b.views, loop, sb)
	opt := b.cfg.Opts
	invdeg, active := st.invdeg, st.active
	runRow, runCol := s.runs.row, s.runs.col
	laneDangling, laneDelta := s.laneDangling, s.laneDelta

	// Pass 1 (by source): scale ranks by inverse out-degree and collect
	// dangling mass.
	s.pass1 = func(wk *sched.Worker, lo, hi int) {
		x, z := s.x, s.z
		var d float64
		for u := lo; u < hi; u++ {
			z[u] = x[u] * invdeg[u]
			if active[u] && invdeg[u] == 0 {
				d += x[u]
			}
		}
		laneDangling[laneOf(wk)] += d
	}
	// Pass 2 (by target): pull contributions along the indexed runs, all
	// of which are live in the batch's one window.
	s.pass2 = func(wk *sched.Worker, lo, hi int) {
		x, y, z := s.x, s.y, s.z
		base := s.base
		var delta float64
		for v := lo; v < hi; v++ {
			if !active[v] {
				y[v] = 0
				continue
			}
			var acc float64
			for _, c := range runCol[runRow[v]:runRow[v+1]] {
				acc += z[c]
			}
			nv := base + (1-opt.Alpha)*acc
			delta += math.Abs(nv - x[v])
			y[v] = nv
		}
		laneDelta[laneOf(wk)] += delta
	}
	b.markLive(0)
}

// Iterate runs one power-iteration sweep: pass 1, the dangling
// reduction, pass 2, and the vector swap.
func (spmvKernel) Iterate(b *Batch) {
	s := b.state.(*spmvState)
	n := len(s.x)
	clear(s.laneDangling)
	clear(s.laneDelta)
	b.loop(n, s.pass1)
	var dangling float64
	for _, d := range s.laneDangling {
		dangling += d
	}
	alpha := b.cfg.Opts.Alpha
	s.base = alpha*s.invNA + (1-alpha)*dangling*s.invNA
	b.loop(n, s.pass2)
	s.x, s.y = s.y, s.x
}

// Residual sums the lane deltas of the last sweep.
func (spmvKernel) Residual(b *Batch, _ int) float64 {
	s := b.state.(*spmvState)
	var delta float64
	for _, d := range s.laneDelta {
		delta += d
	}
	return delta
}

// Finalize publishes the rank vector and returns all working memory.
func (spmvKernel) Finalize(b *Batch) {
	s := b.state.(*spmvState)
	sb := b.scratch
	if !s.empty {
		sb.putF64(s.y)
		sb.putF64(s.z)
		sb.putF64(s.laneDangling)
		sb.putF64(s.laneDelta)
		s.runs.release(sb)
	}
	releaseWindowState(sb, s.st)
	b.results[0].ranks = s.x
	b.state = nil
}
