package core

import (
	"math"
	"slices"

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
// the chunk sums, CG's r, p and q and its peel's d, b, order, parent
// and left belong to the unit's workspace;
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
// unforked undirected plan on a symmetrized graph. Init first peels the
// window to its 2-core (peel): every vertex with at most one remaining
// neighbour is eliminated exactly, and CG iterates only the core
// (iterateCG); each stop back-substitutes the peeled vertices. Its
// passes pull along the same runs.
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
	// (z holds invdeg∘p), q = M·p, ρ = ⟨r, r⟩_W and the teleport term
	// α/n.
	r, p, q  []float64
	rho, tel float64

	// The peel (see peel): the eliminated system's diagonal d and
	// right-hand side b, each vertex's remaining-neighbour count left
	// (-1 once eliminated) and parent (-1 for a tree's root), and order,
	// the peeled vertices in elimination order followed by the core in
	// list order. core is order[peeled:] and coreRuns its rows' runs.
	d, b         []float64
	order        []int32
	parent, left []int32
	core         []int32
	peeled       int
	coreRuns     int64

	// The window's counted work (RunReport.RunsScanned, PairsSwept):
	// the runs its passes walked and the vertices they visited.
	runsScanned, pairsSwept int64

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
// Jacobi also sizes zin and its chunk slots. Conjugate gradient peels
// the window and pulls the core's residual at the start; a window whose
// peel leaves no core is solved here, exactly, and reports its true
// residual. Init records the active and core counts in the result; a
// window with no active vertex is converged before its first iteration.
func (s *spmvKernel) Init(b *Batch) {
	n := int(b.mw.NumLocal())
	ws := b.ws

	ix := &b.chain
	s.runsVisited = ix.seek(b.w)
	s.runs, s.invdeg, s.list = ix.runIndex, ix.invdeg, ix.list
	list := s.list
	listed := len(list)
	b.result.ActiveVertices = int32(listed)
	b.result.CoreVertices = int32(listed)
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
	// The peel's roles and r, p and q were sized once per unit
	// (solveUnit); each is written at every active entry, or every core
	// entry, before it is read.
	s.r, s.p, s.q = ws.r, ws.p, ws.q
	s.d, s.b, s.order, s.parent, s.left = ws.d, ws.b, ws.order, ws.parent, ws.left
	s.tel = b.cfg.Opts.Alpha / float64(listed)
	s.peel()
	b.result.CoreVertices = int32(len(s.core))
	if len(s.core) == 0 {
		// A forest: the back-substitution is the solve. The start is
		// never read, but UsedPartialInit still says one was staged;
		// RunReport.ForestWindows counts these windows.
		s.stop(b.cfg.Opts.Tol, true)
		b.result.Converged = s.residual < b.cfg.Opts.Tol
		return
	}
	s.restart()
}

// peel eliminates, exactly, every vertex of the window with at most one
// remaining neighbour, until what remains is the 2-core. The system is
// CG's, written per active vertex v as
//
//	d_v·x_v − (1−α)·Σ_u x_u/deg_u = b_v,  d_v = 1, b_v = α/n,
//
// where the sum runs over v's runs, a self-loop included. Eliminating l,
// whose one remaining neighbour is h, first folds a self-loop into its
// pivot, d_l −= (1−α)/deg_l, then sets d_h −= (1−α)²/(deg_l·deg_h·d_l)
// and b_h += (1−α)·b_l/(deg_l·d_l); deg is the window's degree
// (1/invdeg) throughout, and a self-loop never counts as a neighbour
// (a binary search of v's runs, which are sorted by neighbour, finds
// it).
// Back-substitution (backSubstitute) then recovers x_l = (b_l +
// (1−α)·x_h/deg_h)/d_l, or b_l/d_l for a tree's root. On the core, d
// keeps the self-loop inside the pull, so CG's operator there is
// d∘p − (1−α)·A·(invdeg∘p) with A's self-loops; with nothing peeled,
// d = 1 and b = α/n, and the core solves the window's own system.
//
// The queue is seeded in list order, so the elimination order, and the
// bits, depend only on the window. Elimination keeps the column
// diagonal dominance margin α, so d_l ≥ α; should a pivot still fail to
// be positive, the peel is undone and the whole window is the core.
func (s *spmvKernel) peel() {
	invdeg := s.invdeg
	n := len(invdeg)
	d, b, parent, left := s.d[:n], s.b[:n], s.parent[:n], s.left[:n]
	runRow, runEnd, runCol := s.runs.row[:n], s.runs.end[:n], s.runs.col
	damp, tel := s.damp, s.tel
	order := s.order[:0]
	for _, v := range s.list {
		runs := runCol[runRow[v]:runEnd[v]]
		cnt := int32(len(runs))
		if _, ok := slices.BinarySearch(runs, v); ok {
			cnt--
		}
		left[v] = cnt
		d[v], b[v] = 1, tel
		if cnt <= 1 {
			order = append(order, v)
		}
	}
	var scanned int64
	for i := 0; i < len(order); i++ {
		l := order[i]
		h := int32(-1)
		dl := d[l]
		runs := runCol[runRow[l]:runEnd[l]]
		for _, c := range runs {
			if c == l {
				dl -= damp * invdeg[l]
			} else if left[c] >= 0 {
				h = c
			}
		}
		scanned += int64(len(runs))
		if !(dl > 0) {
			// Unreachable in exact arithmetic; solve the window unpeeled.
			order = order[:0]
			for _, v := range s.list {
				d[v], b[v], left[v] = 1, tel, 0
			}
			break
		}
		d[l], left[l], parent[l] = dl, -1, h
		if h >= 0 {
			g := damp * invdeg[l] / dl
			d[h] -= damp * g * invdeg[h]
			b[h] += g * b[l]
			if left[h]--; left[h] == 1 {
				order = append(order, h)
			}
		}
	}
	peeled := len(order)
	var coreRuns int64
	for _, v := range s.list {
		if left[v] >= 0 {
			order = append(order, v)
			coreRuns += runEnd[v] - runRow[v]
		}
	}
	s.order, s.peeled, s.core, s.coreRuns = order, peeled, order[peeled:], coreRuns
	s.runsScanned += scanned
	s.pairsSwept += int64(peeled)
}

// backSubstitute recovers the peeled vertices from the core's x, in
// reverse elimination order, so every parent is known before its
// children.
func (s *spmvKernel) backSubstitute() {
	invdeg := s.invdeg
	n := len(invdeg)
	x, d, b, parent := s.x[:n], s.d[:n], s.b[:n], s.parent[:n]
	damp := s.damp
	order := s.order[:s.peeled]
	for i := len(order) - 1; i >= 0; i-- {
		l := order[i]
		xl := b[l]
		if h := parent[l]; h >= 0 {
			xl += damp * x[h] * invdeg[h]
		}
		x[l] = xl / d[l]
	}
	s.pairsSwept += int64(len(order))
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
	s.runsScanned += s.runs.kept
	s.pairsSwept += int64(len(s.list))
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

// iterateCG runs one conjugate gradient step on the core's system
// d∘x − (1−α)·A·(invdeg∘x) = b, which the peel left (see peel). On a
// symmetrized graph A is symmetric and no active vertex dangles, so the
// window's M = I − (1−α)·A·D⁻¹ is self-adjoint and positive definite
// under ⟨u, v⟩_W = Σ u_v·v_v/deg(v), and so is its Schur complement on
// the core; CG runs in that inner product (DESIGN.md "Three updates,
// chosen by the plan"). A step makes three passes over the core: a pull
// for q = d∘p − (1−α)·A·z (z = invdeg∘p, zero at every peeled vertex,
// so the pull reads only the core) with pᵀWq, an update of x and r with
// ρ = ⟨r, r⟩_W and ‖r‖₁, and p = r + βp with z = invdeg∘p.
//
// The window stops when ‖r‖₁ of the recursive residual passes the
// tolerance, on its last iteration (MaxIter), or when a step cannot
// divide: ρ = 0 or pᵀWq ≤ 0 means the core is exactly solved. A stop
// back-substitutes the peeled vertices, renormalizes x and pulls the
// true residual of that vector over the whole window, which the stop
// test and the error bound read (stop); should the true residual fail
// where the recursive one passed, CG restarts from the core's residual.
func (s *spmvKernel) iterateCG(b *Batch) {
	opt := &b.cfg.Opts
	last := b.result.Iterations+1 >= opt.MaxIter
	if s.rho == 0 {
		s.stop(opt.Tol, last)
		return
	}
	invdeg := s.invdeg
	n := len(invdeg)
	x, z, r, p, q, d := s.x[:n], s.z[:n], s.r[:n], s.p[:n], s.q[:n], s.d[:n]
	runRow, runEnd, runCol := s.runs.row[:n], s.runs.end[:n], s.runs.col
	damp := s.damp
	s.runsScanned += s.coreRuns
	s.pairsSwept += int64(len(s.core))
	var pwq float64
	for _, v := range s.core {
		var acc float64
		for _, c := range runCol[runRow[v]:runEnd[v]] {
			acc += z[c]
		}
		qv := d[v]*p[v] - damp*acc
		q[v] = qv
		pwq += z[v] * qv
	}
	if !(pwq > 0) {
		s.stop(opt.Tol, last)
		return
	}
	a := s.rho / pwq
	var rho, r1 float64
	for _, v := range s.core {
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
	for _, v := range s.core {
		pv := r[v] + beta*p[v]
		p[v] = pv
		z[v] = pv * invdeg[v]
	}
}

// stop back-substitutes the peeled vertices, renormalizes x, stages
// z = invdeg∘x and pulls the true residual of the renormalized vector
// over the whole window, so residual = ‖r‖₁/(1−α) describes the vector
// the window keeps and its error bound, ‖r‖₁/α, is the proven one (P is
// column-stochastic). When that fails the tolerance and iterations
// remain, CG restarts on the core.
func (s *spmvKernel) stop(tol float64, last bool) {
	s.backSubstitute()
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
// (z = invdeg∘x staged) over the whole window and records ‖r‖₁/(1−α).
func (s *spmvKernel) pullResidual() {
	invdeg := s.invdeg
	n := len(invdeg)
	x, z := s.x[:n], s.z[:n]
	runRow, runEnd, runCol := s.runs.row[:n], s.runs.end[:n], s.runs.col
	tel, damp := s.tel, s.damp
	s.runsScanned += s.runs.kept
	s.pairsSwept += int64(len(s.list))
	var r1 float64
	for _, v := range s.list {
		var acc float64
		for _, c := range runCol[runRow[v]:runEnd[v]] {
			acc += z[c]
		}
		r1 += math.Abs(tel + damp*acc - x[v])
	}
	s.residual = r1 / damp
}

// restart starts the search on the core from the core system's residual
// r = b + (1−α)·A·z − d∘x of the current x (z = invdeg∘x staged on the
// core, and zeroed at every peeled vertex first, so the pull reads only
// the core), with ρ = ⟨r, r⟩_W, p = r and z = invdeg∘p. The peeled
// vertices need no correction of their own: the next stop
// back-substitutes them from the core. It leaves residual, which the
// stop test reads, as it was.
func (s *spmvKernel) restart() {
	invdeg := s.invdeg
	n := len(invdeg)
	x, z, r, p, d, b := s.x[:n], s.z[:n], s.r[:n], s.p[:n], s.d[:n], s.b[:n]
	runRow, runEnd, runCol := s.runs.row[:n], s.runs.end[:n], s.runs.col
	damp := s.damp
	for _, l := range s.order[:s.peeled] {
		z[l] = 0
	}
	s.runsScanned += s.coreRuns
	s.pairsSwept += int64(len(s.core))
	var rho float64
	for _, v := range s.core {
		var acc float64
		for _, c := range runCol[runRow[v]:runEnd[v]] {
			acc += z[c]
		}
		rv := b[v] + damp*acc - d[v]*x[v]
		r[v] = rv
		rho += rv * rv * invdeg[v]
	}
	for _, v := range s.core {
		p[v] = r[v]
		z[v] = p[v] * invdeg[v]
	}
	s.rho = rho
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
