package core

import (
	"math"
	"math/bits"

	"pmpr/internal/sched"
	"pmpr/internal/tcsr"
)

// spmmKernel advances the PageRank vectors of a whole batch of windows
// (all in one multi-window graph) simultaneously — the SpMM-inspired
// kernel of paper Sec. 4.4. It is the engine's only kernel: SpMV is its
// width-1 case, where Init binds passes with no slot masks and no slot
// loop. Vectors are interleaved — entry (v, k) lives at v*K+k — so the
// random accesses of the pull pass hit one cache line for all K
// windows, which is the SpMM effect the paper exploits.
//
// Edge liveness is resolved once per batch into a run index (see
// runIndex): a sweep walks only the runs live in some slot and adds a
// run's contribution to the slots set in its mask, reading no
// timestamps. Working memory is drawn from the batch's scratch lease
// and returned in Finalize; only the K per-window rank vectors stay
// checked out (the driver recycles them once consumed). Cross-leaf
// reductions use lane-indexed K-wide slots — lane l owns
// [l*K, (l+1)*K) — summed serially between passes, so the leaves of
// the steady-state iteration loop neither allocate nor touch atomics.
//
// The value lives in Batch.kern; the interleaved x and y swap through
// it, so the bound passes track them for free.
type spmmKernel struct {
	invdeg       []float64
	active       []bool
	na           []int32
	runs         runIndex
	liveMask     uint64 // bit k set iff slot k is live this sweep
	x, y, z      []float64
	laneDangling []float64
	laneDelta    []float64
	baseK        []float64
	pass1, pass2 sched.Body
}

// Init stages the interleaved window states and starting vectors (Eq. 4
// per slot where a predecessor vector is supplied, uniform otherwise),
// builds the batch's run index, binds the two sweep passes, and marks
// non-empty slots live.
func (s *spmmKernel) Init(b *Batch) {
	mw := b.mw
	n := int(mw.NumLocal())
	K := b.width()
	sb, loop := b.scratch, b.loop
	opt := b.cfg.Opts
	lanes := sb.lanes()
	views := b.views

	// Per-window inverse out-degrees, interleaved. First accumulate
	// counts, then invert in place.
	invdeg := sb.getF64(n * K)
	loop(n, func(_ *sched.Worker, lo, hi int) {
		for u := lo; u < hi; u++ {
			start, end := mw.OutRow[u], mw.OutRow[u+1]
			i := start
			for i < end {
				j := i + 1
				c := mw.OutCol[i]
				for j < end && mw.OutCol[j] == c {
					j++
				}
				times := mw.OutTime[i:j]
				for k := 0; k < K; k++ {
					if tcsr.RunActive(times, views[k].Ts, views[k].Te) {
						invdeg[u*K+k]++
					}
				}
				i = j
			}
			for k := 0; k < K; k++ {
				if d := invdeg[u*K+k]; d > 0 {
					invdeg[u*K+k] = 1 / d
				}
			}
		}
	})
	s.invdeg = invdeg

	runs := buildRunIndex(mw, views, loop, sb)
	s.runs = runs
	runRow, runCol, runMask := runs.row, runs.col, runs.mask

	// Activity flags and |V_i| per window; counts reduce via lanes. A
	// directed graph's vertex with only in-edges is active in the slots
	// its live in-runs cover.
	active := sb.getBool(n * K)
	laneCnt := sb.getI32(lanes * K)
	directed := b.cfg.Directed
	loop(n, func(wk *sched.Worker, lo, hi int) {
		cnt := laneCnt[laneOf(wk)*K:][:K]
		for v := lo; v < hi; v++ {
			var in uint64
			if directed {
				for r := runRow[v]; r < runRow[v+1]; r++ {
					in |= runMask[r]
				}
			}
			for k := 0; k < K; k++ {
				if invdeg[v*K+k] > 0 || in&(1<<k) != 0 {
					active[v*K+k] = true
					cnt[k]++
				}
			}
		}
	})
	s.active = active
	na := sb.getI32(K)
	for k := 0; k < K; k++ {
		for l := 0; l < lanes; l++ {
			na[k] += laneCnt[l*K+k]
		}
		b.results[k].ActiveVertices = na[k]
		if na[k] > 0 {
			b.markLive(k)
		} else {
			b.results[k].Converged = true
		}
	}
	sb.putI32(laneCnt)
	s.na = na

	// Initialization: Eq. 4 per window slot where a predecessor vector
	// is supplied, uniform otherwise.
	x := sb.getF64(n * K)
	y := sb.getF64(n * K)
	z := sb.getF64(n * K)
	s.x, s.y, s.z = x, y, z
	inits := b.inits
	laneSharedN := sb.getI64(lanes * K)
	laneSharedSum := sb.getF64(lanes * K)
	loop(n, func(wk *sched.Worker, lo, hi int) {
		lane := laneOf(wk)
		cnt := laneSharedN[lane*K:][:K]
		sum := laneSharedSum[lane*K:][:K]
		for v := lo; v < hi; v++ {
			for k := 0; k < K; k++ {
				if p := inits[k]; p != nil && active[v*K+k] && p[v] > 0 {
					cnt[k]++
					sum[k] += p[v]
				}
			}
		}
	})
	scale := sb.getF64(K)
	uniform := sb.getF64(K)
	partial := sb.getBool(K)
	for k := 0; k < K; k++ {
		if na[k] == 0 {
			continue
		}
		uniform[k] = 1 / float64(na[k])
		var sh int64
		var sm float64
		for l := 0; l < lanes; l++ {
			sh += laneSharedN[l*K+k]
			sm += laneSharedSum[l*K+k]
		}
		if inits[k] != nil && sh > 0 && sm > 0 {
			scale[k] = float64(sh) / float64(na[k]) / sm
			partial[k] = true
			b.results[k].UsedPartialInit = true
		}
	}
	sb.putI64(laneSharedN)
	sb.putF64(laneSharedSum)
	loop(n, func(_ *sched.Worker, lo, hi int) {
		for v := lo; v < hi; v++ {
			for k := 0; k < K; k++ {
				switch {
				case !active[v*K+k]:
					x[v*K+k] = 0
				case partial[k] && inits[k][v] > 0:
					x[v*K+k] = inits[k][v] * scale[k]
				default:
					x[v*K+k] = uniform[k]
				}
			}
		}
	})

	laneDangling := sb.getF64(lanes * K)
	laneDelta := sb.getF64(lanes * K)
	baseK := sb.getF64(K)
	s.laneDangling, s.laneDelta, s.baseK = laneDangling, laneDelta, baseK
	sb.putF64(scale)
	sb.putF64(uniform)
	sb.putBool(partial)

	damp := 1 - opt.Alpha
	if K == 1 {
		s.bindWidth1(damp)
		return
	}
	isLive := b.isLive

	// Pass 1 (by source): scaled contributions + dangling mass.
	s.pass1 = func(wk *sched.Worker, lo, hi int) {
		xv := s.x
		live := b.live
		d := laneDangling[laneOf(wk)*K:][:K]
		for u := lo; u < hi; u++ {
			xu, zu := xv[u*K:][:K], z[u*K:][:K]
			du, au := invdeg[u*K:][:K], active[u*K:][:K]
			for _, k := range live {
				zu[k] = xu[k] * du[k]
				if au[k] && du[k] == 0 {
					d[k] += xu[k]
				}
			}
		}
	}
	// Pass 2 (by target): one walk of the run index advances all live
	// windows. acc lives on the leaf's stack and is zero at the start of
	// every vertex: the slot loop clears each entry after reading it.
	s.pass2 = func(wk *sched.Worker, lo, hi int) {
		xv, yv := s.x, s.y
		liveMask := s.liveMask
		dl := laneDelta[laneOf(wk)*K:][:K]
		var acc [maxSlots]float64
		for v := lo; v < hi; v++ {
			for r := runRow[v]; r < runRow[v+1]; r++ {
				zc := z[int(runCol[r])*K:][:K]
				for m := runMask[r] & liveMask; m != 0; m &= m - 1 {
					k := bits.TrailingZeros64(m) & (maxSlots - 1)
					acc[k] += zc[k]
				}
			}
			xr, yr, ar := xv[v*K:][:K], yv[v*K:][:K], active[v*K:][:K]
			for k := range yr {
				switch {
				case !isLive[k]:
					// Keep converged windows' entries current so the
					// array swap does not resurrect stale iterates.
					yr[k] = xr[k]
				case !ar[k]:
					yr[k] = 0
				default:
					nv := baseK[k] + damp*acc[k]
					dl[k] += math.Abs(nv - xr[k])
					yr[k] = nv
				}
				acc[k] = 0
			}
		}
	}
}

// bindWidth1 binds the passes of a width-1 batch — the SpMV case. Every
// indexed run is live in the one slot and a converged slot ends the
// batch, so the passes read no slot masks and loop over no slots. The
// lane sums run in a register from the lane's current value, which is
// the same sequence of additions the K-slot passes make in memory: a
// batch's bits do not depend on which passes its width selects.
//
// It must not be inlined: the passes' copies inside Init (a big
// function) lose inlining of math.Abs and run about 1.3× slower.
//
//go:noinline
func (s *spmmKernel) bindWidth1(damp float64) {
	invdeg, active := s.invdeg, s.active
	runRow, runCol, z := s.runs.row, s.runs.col, s.z
	laneDangling, laneDelta := s.laneDangling, s.laneDelta
	// Pass 1 (by source): scale ranks by inverse out-degree and collect
	// dangling mass.
	s.pass1 = func(wk *sched.Worker, lo, hi int) {
		x := s.x
		d := laneDangling[laneOf(wk)]
		for u := lo; u < hi; u++ {
			z[u] = x[u] * invdeg[u]
			if active[u] && invdeg[u] == 0 {
				d += x[u]
			}
		}
		laneDangling[laneOf(wk)] = d
	}
	// Pass 2 (by target): pull contributions along the indexed runs.
	s.pass2 = func(wk *sched.Worker, lo, hi int) {
		x, y := s.x, s.y
		base := s.baseK[0]
		delta := laneDelta[laneOf(wk)]
		for v := lo; v < hi; v++ {
			if !active[v] {
				y[v] = 0
				continue
			}
			var acc float64
			for _, c := range runCol[runRow[v]:runRow[v+1]] {
				acc += z[c]
			}
			nv := base + damp*acc
			delta += math.Abs(nv - x[v])
			y[v] = nv
		}
		laneDelta[laneOf(wk)] = delta
	}
}

// Iterate runs one sweep advancing all live slots: pass 1,
// the per-slot dangling reductions, pass 2, and the vector swap.
func (s *spmmKernel) Iterate(b *Batch) {
	K := b.width()
	n := int(b.mw.NumLocal())
	lanes := b.scratch.lanes()
	alpha := b.cfg.Opts.Alpha
	clear(s.laneDangling)
	clear(s.laneDelta)
	s.liveMask = 0
	for _, k := range b.live {
		s.liveMask |= 1 << k
	}
	b.loop(n, s.pass1)
	for _, k := range b.live {
		var d float64
		for l := 0; l < lanes; l++ {
			d += s.laneDangling[l*K+k]
		}
		invNA := 1 / float64(s.na[k])
		s.baseK[k] = alpha*invNA + (1-alpha)*d*invNA
	}
	b.loop(n, s.pass2)
	s.x, s.y = s.y, s.x
}

// Residual sums slot's lane deltas of the last sweep.
func (s *spmmKernel) Residual(b *Batch, slot int) float64 {
	K := b.width()
	lanes := b.scratch.lanes()
	var delta float64
	for l := 0; l < lanes; l++ {
		delta += s.laneDelta[l*K+slot]
	}
	return delta
}

// Finalize de-interleaves each slot's rank vector into its result and
// returns all working memory. A width-1 batch's x is already its rank
// vector and is handed over as is.
func (s *spmmKernel) Finalize(b *Batch) {
	sb := b.scratch
	n := int(b.mw.NumLocal())
	K := b.width()
	if K == 1 {
		b.results[0].ranks = s.x
	} else {
		for k := 0; k < K; k++ {
			ranks := sb.getF64(n)
			for v := 0; v < n; v++ {
				ranks[v] = s.x[v*K+k]
			}
			b.results[k].ranks = ranks
		}
		sb.putF64(s.x)
	}
	sb.putF64(s.y)
	sb.putF64(s.z)
	sb.putF64(s.invdeg)
	sb.putBool(s.active)
	s.runs.release(sb)
	sb.putI32(s.na)
	sb.putF64(s.laneDangling)
	sb.putF64(s.laneDelta)
	sb.putF64(s.baseK)
	*s = spmmKernel{}
}
