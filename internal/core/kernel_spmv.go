package core

import (
	"math"

	"pmpr/internal/sched"
)

// spmvKernel advances one window's PageRank vector by sparse
// matrix-vector passes over its multi-window graph — the engine's only
// kernel. Paper Sec. 4.4 batches K windows per sweep to save memory
// traffic; here a multi-window graph fits in cache, so one window per
// sweep, warm-started from its predecessor, is faster (EXPERIMENTS.md
// "Width K — deleted").
//
// Edge liveness comes from the chain's run index (see chainIndex),
// brought to the window once in Init: a sweep walks only the in-runs
// live in the window, reading no timestamps. Vertex activity is
// compacted the same way: list holds the window's active vertices, and
// every loop walks only list, so a sweep costs what the window sees,
// not what the multi-window graph holds. Entries of x and z outside
// list start at zero and stay zero. The index, degrees, list, z, zin,
// the chunk sums and CG's r, p and q belong to the unit's workspace;
// the rank vector x comes from its stash and stays checked out until
// solveUnit recycles it, once the successor window has consumed it.
//
// The kernel runs the update the plan chooses (Batch.update). The two
// sweeps share one body (sweep): for each active vertex it pulls along
// the indexed runs from zin and writes the new value to x and z in
// place.
//
//   - Gauss–Seidel, when the plan does not fork vertex loops and does
//     not run conjugate gradient: zin is z itself, so a vertex reads
//     each in-neighbour's value from the current sweep once it has been
//     updated.
//   - Jacobi, when it does: zin is the previous sweep's z, and z and
//     zin swap before each sweep. A vertex reads only its own old x[v],
//     so the update needs no second rank vector.
//
// A Jacobi sweep splits the list into fixed chunks of chunkLen
// vertices and runs the body over them on the plan's vertex loop. Each
// chunk writes its sums to its own slot and the slots are added in
// chunk order, so the split, and the result, depend only on the list
// length, never on which worker runs a chunk. A window of at most one
// chunk calls the body directly.
//
// The third update, conjugate gradient, replaces the sweeps of an
// unforked undirected plan on a symmetrized graph (iterateCG). Its
// passes walk the same list and pull along the same runs.
type spmvKernel struct {
	update      string // the window's update: the plan's (Batch.update)
	invdeg      []float64
	list        []int32 // the window's active vertices, ascending
	runs        runIndex
	runsVisited int64 // runs Init inserted into or removed from the chain's index
	x, z, zin   []float64
	sums        []chunkSum // Jacobi's per-chunk slots; nil otherwise
	damp        float64    // 1 − α
	base        float64    // the teleport term of the running sweep

	// What the last sweep (or Init) left: the active mass, the dangling
	// mass, and the residual the stop test reads (Residual).
	mass, dangling, residual float64

	// Conjugate gradient's state: the residual r, the search direction p
	// (z holds invdeg∘p), q = M·p, ρ = ‖r‖²_W and the teleport term α/n.
	r, p, q  []float64
	rho, tel float64

	// chunked runs the body over a range of chunks. It is bound once
	// per unit, so the steady-state sweep does not allocate.
	chunked sched.Body
}

// chunkLen is the number of active vertices in one chunk of a forked
// sweep (EXPERIMENTS.md "One sweep body").
const chunkLen = 512

// chunkSum is one chunk's share of a sweep's sums.
type chunkSum struct{ mass, dangling, delta float64 }

// Init brings the chain's index to the window (chainIndex.seek: the
// window's enter and leave deltas, or a rebuild) and takes its run
// index, inverse out-degrees and active list, then stages the starting
// vector over the list (Eq. 4 where a predecessor vector is supplied,
// uniform otherwise), its inverse-degree scaling z and its mass.
// Jacobi also sizes zin and its chunk slots, and conjugate gradient
// pulls the start's residual. It records the active count in the
// result; a window with no active vertex is converged before its first
// iteration.
func (s *spmvKernel) Init(b *Batch) {
	n := int(b.mw.NumLocal())
	ws := b.ws

	ix := &b.chain
	s.runsVisited = ix.seek(b.w)
	s.runs, s.invdeg, s.list = ix.runIndex, ix.invdeg, ix.list
	list := s.list
	listed := len(list)
	b.result.ActiveVertices = int32(listed)
	b.result.Converged = listed == 0
	s.update = b.update
	s.damp = 1 - b.cfg.Opts.Alpha

	x := ws.rank(n)
	// z is sized (zeroed) per window, not per unit: a run may come from
	// a vertex outside the list when the stored graph is not symmetric,
	// and its z must read zero, not a previous window's value.
	s.x, s.z = x, size(ws, &ws.z, n)
	s.zin = s.z
	if s.update == UpdateJacobi {
		s.zin = size(ws, &ws.zin, n)
		s.sums = size(ws, &ws.sums, (listed+chunkLen-1)/chunkLen)
		if s.chunked == nil {
			s.chunked = s.sweepChunks
		}
	}

	// Eq. 4 where a predecessor vector is supplied: the predecessor's
	// ranks, scaled so the vertices it ranks keep their share of the
	// list; every other vertex, and a uniform start, takes 1/listed.
	init := b.init
	var scale float64
	if init != nil {
		var cnt int
		var sum float64
		for _, v := range list {
			if init[v] > 0 {
				cnt++
				sum += init[v]
			}
		}
		if cnt > 0 && sum > 0 {
			scale = float64(cnt) / float64(listed) / sum
			b.result.UsedPartialInit = true
		}
	}
	uniform := 1 / float64(listed)
	z, invdeg := s.z, s.invdeg
	var mass, dangling float64
	for _, v := range list {
		xv := uniform
		if scale > 0 && init[v] > 0 {
			xv = init[v] * scale
		}
		x[v] = xv
		id := invdeg[v]
		z[v] = xv * id
		mass += xv
		if id == 0 {
			dangling += xv
		}
	}
	s.mass, s.dangling = mass, dangling

	if s.update != UpdateCG || listed == 0 {
		return
	}
	if dangling > 0 {
		// A dangling vertex makes M non-symmetric. A graph marked
		// symmetric has none; should one appear, the window sweeps.
		s.update = UpdateGaussSeidel
		return
	}
	// r, p and q were sized once per unit (solveUnit); each is written
	// at every active entry before it is read.
	s.r, s.p, s.q = ws.r, ws.p, ws.q
	s.tel = b.cfg.Opts.Alpha / float64(listed)
	s.pullResidual()
	s.restart()
}

// sweep runs the update over vs, a stretch of the active list: for
// each vertex it pulls along the indexed runs from zin and writes the
// new value to x and z in place. It returns the stretch's new active
// mass, dangling mass and L1 change.
//
// Every per-vertex slice is cut to invdeg's length, so the one bounds
// check on invdeg[v] covers x, z, runRow and runEnd too; the fewer live
// lengths keep the loop out of stack spills (EXPERIMENTS.md "One sweep
// body").
func (s *spmvKernel) sweep(vs []int32) (mass, dangling, delta float64) {
	invdeg := s.invdeg
	n := len(invdeg)
	x, z, zin := s.x[:n], s.z[:n], s.zin[:n]
	runRow, runEnd, runCol := s.runs.row[:n], s.runs.end[:n], s.runs.col
	base, damp := s.base, s.damp
	for _, v := range vs {
		id := invdeg[v]
		var acc float64
		for _, c := range runCol[runRow[v]:runEnd[v]] {
			acc += zin[c]
		}
		nv := base + damp*acc
		delta += math.Abs(nv - x[v])
		x[v] = nv
		z[v] = nv * id
		mass += nv
		if id == 0 {
			dangling += nv
		}
	}
	return mass, dangling, delta
}

// sweepChunks runs the body over chunks [lo, hi), each into its slot.
func (s *spmvKernel) sweepChunks(_ *sched.Worker, lo, hi int) {
	for c := lo; c < hi; c++ {
		vs := s.list[c*chunkLen : min((c+1)*chunkLen, len(s.list))]
		sum := &s.sums[c]
		sum.mass, sum.dangling, sum.delta = s.sweep(vs)
	}
}

// Iterate runs one iteration of the window's update: a conjugate
// gradient step (iterateCG) or one sweep. Before a sweep z and zin
// swap: under Gauss–Seidel they are one vector, and under Jacobi zin
// becomes the z the previous sweep wrote.
//
// The teleport term corrects mass. With S the active mass and d the
// dangling mass the previous sweep left, base = (1 − damp·(S − d)) / n:
// the teleport share plus whatever mass the non-dangling pull will not
// deliver. At S = 1 it equals Jacobi's α/n + damp·d/n, so the fixed
// point is PageRank's. A base of α/n + damp·d/n alone would leave a
// Gauss–Seidel mass error that decays only at 1 − α per sweep.
func (s *spmvKernel) Iterate(b *Batch) {
	if s.update == UpdateCG {
		s.iterateCG(b)
		return
	}
	s.base = (1 - s.damp*(s.mass-s.dangling)) / float64(len(s.list))
	s.z, s.zin = s.zin, s.z
	if len(s.sums) <= 1 {
		s.mass, s.dangling, s.residual = s.sweep(s.list)
		return
	}
	b.loop(len(s.sums), s.chunked)
	var mass, dangling, delta float64
	for _, c := range s.sums {
		mass += c.mass
		dangling += c.dangling
		delta += c.delta
	}
	s.mass, s.dangling, s.residual = mass, dangling, delta
}

// iterateCG runs one conjugate gradient step on the window's PageRank
// system M·x = α/n·1, M = I − (1−α)·A·D⁻¹. On a symmetrized graph A is
// symmetric and no active vertex dangles, so M is self-adjoint and
// positive definite under ⟨u, v⟩_W = Σ u_v·v_v/deg(v), and CG runs in
// that inner product (DESIGN.md "Three updates, chosen by the plan").
// A step makes three passes over the list: a pull for q = M·p (z =
// invdeg∘p) with pᵀWq, an update of x and r with ‖r‖²_W and ‖r‖₁, and
// p = r + βp with z = invdeg∘p.
//
// The window stops when ‖r‖₁ of the recursive residual passes the
// tolerance, on its last iteration (MaxIter), or when a step cannot
// divide: ρ = 0 or pᵀWq ≤ 0 means the window is exactly solved. A stop
// renormalizes x and pulls the true residual of that vector, which the
// stop test and the error bound read (stop); should the true residual
// fail where the recursive one passed, CG restarts from it.
func (s *spmvKernel) iterateCG(b *Batch) {
	opt := &b.cfg.Opts
	last := b.result.Iterations+1 >= opt.MaxIter
	if s.rho == 0 {
		s.stop(opt.Tol, last)
		return
	}
	invdeg := s.invdeg
	n := len(invdeg)
	x, z, r, p, q := s.x[:n], s.z[:n], s.r[:n], s.p[:n], s.q[:n]
	runRow, runEnd, runCol := s.runs.row[:n], s.runs.end[:n], s.runs.col
	damp := s.damp
	var pwq float64
	for _, v := range s.list {
		var acc float64
		for _, c := range runCol[runRow[v]:runEnd[v]] {
			acc += z[c]
		}
		qv := p[v] - damp*acc
		q[v] = qv
		pwq += z[v] * qv
	}
	if !(pwq > 0) {
		s.stop(opt.Tol, last)
		return
	}
	a := s.rho / pwq
	var rho, r1 float64
	for _, v := range s.list {
		id := invdeg[v]
		x[v] += a * p[v]
		rv := r[v] - a*q[v]
		r[v] = rv
		rho += rv * rv * id
		r1 += math.Abs(rv)
	}
	s.residual = r1 / damp
	if s.residual < opt.Tol || last {
		s.stop(opt.Tol, last)
		return
	}
	beta := rho / s.rho
	s.rho = rho
	for _, v := range s.list {
		pv := r[v] + beta*p[v]
		p[v] = pv
		z[v] = pv * invdeg[v]
	}
}

// stop renormalizes x, stages z = invdeg∘x and pulls the true residual
// of the renormalized vector, so residual = ‖r‖₁/(1−α) describes the
// vector the window keeps and its error bound, ‖r‖₁/α, is the proven
// one (P is column-stochastic). When that fails the tolerance and
// iterations remain, CG restarts from the true r.
func (s *spmvKernel) stop(tol float64, last bool) {
	invdeg := s.invdeg
	n := len(invdeg)
	x, z := s.x[:n], s.z[:n]
	var mass float64
	for _, v := range s.list {
		mass += x[v]
	}
	inv := 1 / mass
	for _, v := range s.list {
		xv := x[v] * inv
		x[v] = xv
		z[v] = xv * invdeg[v]
	}
	s.pullResidual()
	if s.residual >= tol && !last {
		s.restart()
	}
}

// pullResidual pulls the true residual r = α/n + (1−α)·A·z − x of x
// (z = invdeg∘x staged) and records ρ = ‖r‖²_W and ‖r‖₁/(1−α).
func (s *spmvKernel) pullResidual() {
	invdeg := s.invdeg
	n := len(invdeg)
	x, z, r := s.x[:n], s.z[:n], s.r[:n]
	runRow, runEnd, runCol := s.runs.row[:n], s.runs.end[:n], s.runs.col
	tel, damp := s.tel, s.damp
	var rho, r1 float64
	for _, v := range s.list {
		id := invdeg[v]
		var acc float64
		for _, c := range runCol[runRow[v]:runEnd[v]] {
			acc += z[c]
		}
		rv := tel + damp*acc - x[v]
		r[v] = rv
		rho += rv * rv * id
		r1 += math.Abs(rv)
	}
	s.rho, s.residual = rho, r1/damp
}

// restart starts the search from the residual: p = r, z = invdeg∘p.
func (s *spmvKernel) restart() {
	invdeg := s.invdeg
	n := len(invdeg)
	z, r, p := s.z[:n], s.r[:n], s.p[:n]
	for _, v := range s.list {
		p[v] = r[v]
		z[v] = r[v] * invdeg[v]
	}
}

// Residual returns what the stop test reads: the L1 change of the rank
// vector in the last sweep, or conjugate gradient's ‖r‖₁/(1−α) (the
// true residual's once the window stops).
func (s *spmvKernel) Residual() float64 { return s.residual }

// Finalize renormalizes the active entries of x once, so they sum to 1,
// and hands x over to the batch as the window's rank vector; everything
// else stays with the workspace. A conjugate gradient window is
// normalized already: every exit from its loop but a cancellation
// (which leaves the window undecided) goes through stop.
func (s *spmvKernel) Finalize(b *Batch) {
	if s.update != UpdateCG && s.mass > 0 {
		inv := 1 / s.mass
		for _, v := range s.list {
			s.x[v] *= inv
		}
	}
	b.x = s.x
	*s = spmvKernel{chunked: s.chunked}
}
