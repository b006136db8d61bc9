package streaming

import (
	"math"
	"sync/atomic"

	"pmpr/internal/events"
	"pmpr/internal/pagerank"
	"pmpr/internal/sched"
)

// Config controls a streaming run.
type Config struct {
	// Opts are the shared PageRank parameters.
	Opts pagerank.Options
	// Directed keeps edge direction (the log must then not be
	// symmetrized); false expects a symmetrized log.
	Directed bool
	// DiscardRanks keeps only statistics per window.
	DiscardRanks bool
}

// DefaultConfig mirrors the paper's streaming setup.
func DefaultConfig() Config {
	return Config{Opts: pagerank.Defaults()}
}

// The kernel's vertex loop runs on the pool with these settings. The
// streaming model has no window-level parallelism — windows are
// inherently sequential.
const (
	loopPartitioner = sched.Auto
	loopGrain       = 64
)

// WindowStats describes one processed window of the stream.
type WindowStats struct {
	Window         int
	Iterations     int
	Converged      bool
	ActiveVertices int32
	// Inserted and Removed are the batch sizes (event granularity) that
	// slid the window here.
	Inserted, Removed int
	// Ranks is the dense PageRank vector (nil when discarded).
	Ranks []float64
}

// Runner drives the streaming model over a window sequence: per window
// it injects the entering events, retires the departing ones, and
// re-solves PageRank warm-started from the previous window's solution
// (renormalized over the new active set). That is the configuration
// the paper's comparison uses: it produces the same per-window results
// as the postmortem and offline models. The runner maintains exactly
// one graph version, so windows are processed strictly in order.
type Runner struct {
	log  *events.Log
	spec events.WindowSpec
	cfg  Config
	pool *sched.Pool

	g *Graph
	x []float64
}

// NewRunner validates the configuration and prepares an empty stream.
func NewRunner(l *events.Log, spec events.WindowSpec, cfg Config, pool *sched.Pool) (*Runner, error) {
	if err := cfg.Opts.Validate(); err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Runner{
		log:  l,
		spec: spec,
		cfg:  cfg,
		pool: pool,
		g:    NewGraph(l.NumVertices(), cfg.Directed),
		x:    make([]float64, l.NumVertices()),
	}, nil
}

// Graph exposes the current dynamic graph (for inspection and tests).
func (r *Runner) Graph() *Graph { return r.g }

// Run processes every window in order and returns per-window stats.
func (r *Runner) Run() ([]WindowStats, error) {
	out := make([]WindowStats, r.spec.Count)
	for w := 0; w < r.spec.Count; w++ {
		st, err := r.Step(w)
		if err != nil {
			return nil, err
		}
		out[w] = st
	}
	return out, nil
}

// Step advances the stream to window w (which must be the next window).
func (r *Runner) Step(w int) (WindowStats, error) {
	ins, rem, err := r.slide(w)
	if err != nil {
		return WindowStats{}, err
	}
	st := WindowStats{Window: w, Inserted: ins, Removed: rem}
	r.solve(&st, w > 0)
	if !r.cfg.DiscardRanks {
		st.Ranks = append([]float64(nil), r.x...)
	}
	return st, nil
}

// slide applies the batch moving the graph from window w-1 to window w
// and returns the batch sizes.
func (r *Runner) slide(w int) (inserted, removed int, err error) {
	if w == 0 {
		for _, e := range r.log.Slice(r.spec.Start(0), r.spec.End(0)) {
			if _, err := r.g.InsertEventAt(e.U, e.V, e.T); err != nil {
				return 0, 0, err
			}
			inserted++
		}
		return inserted, 0, nil
	}
	// Departing: events of window w-1 that precede window w.
	depHi := r.spec.End(w - 1)
	if s := r.spec.Start(w) - 1; s < depHi {
		depHi = s
	}
	for _, e := range r.log.Slice(r.spec.Start(w-1), depHi) {
		if _, err := r.g.RemoveEvent(e.U, e.V); err != nil {
			return 0, 0, err
		}
		removed++
	}
	// Entering: events of window w that follow window w-1.
	entLo := r.spec.Start(w)
	if s := r.spec.End(w-1) + 1; s > entLo {
		entLo = s
	}
	for _, e := range r.log.Slice(entLo, r.spec.End(w)) {
		if _, err := r.g.InsertEventAt(e.U, e.V, e.T); err != nil {
			return 0, 0, err
		}
		inserted++
	}
	return inserted, removed, nil
}

// loop runs body over [0, n), on the pool when available.
func (r *Runner) loop(n int, body func(lo, hi int)) {
	if r.pool == nil {
		body(0, n)
		return
	}
	r.pool.ParallelFor(n, loopGrain, loopPartitioner, func(_ *sched.Worker, lo, hi int) { body(lo, hi) })
}

// solve runs the power iteration on the current graph, optionally warm
// starting from the previous solution.
func (r *Runner) solve(st *WindowStats, warm bool) {
	n := int(r.g.NumVertices())
	var naA atomic.Int32
	active := make([]bool, n)
	r.loop(n, func(lo, hi int) {
		var c int32
		for v := lo; v < hi; v++ {
			if r.g.Active(int32(v)) {
				active[v] = true
				c++
			} else {
				active[v] = false
			}
		}
		naA.Add(c)
	})
	na := naA.Load()
	st.ActiveVertices = na
	if na == 0 {
		for v := range r.x {
			r.x[v] = 0
		}
		st.Converged = true
		return
	}
	uniform := 1 / float64(na)
	if warm {
		var sumA atomicFloat64
		r.loop(n, func(lo, hi int) {
			var s float64
			for v := lo; v < hi; v++ {
				if active[v] && r.x[v] > 0 {
					s += r.x[v]
				}
			}
			sumA.add(s)
		})
		if sum := sumA.load(); sum > 0 {
			r.loop(n, func(lo, hi int) {
				for v := lo; v < hi; v++ {
					switch {
					case !active[v]:
						r.x[v] = 0
					case r.x[v] > 0:
						r.x[v] /= sum
					default:
						r.x[v] = uniform
					}
				}
			})
			// Renormalize to account for the uniform entries added for
			// fresh vertices.
			var tot atomicFloat64
			r.loop(n, func(lo, hi int) {
				var s float64
				for v := lo; v < hi; v++ {
					s += r.x[v]
				}
				tot.add(s)
			})
			inv := 1 / tot.load()
			r.loop(n, func(lo, hi int) {
				for v := lo; v < hi; v++ {
					r.x[v] *= inv
				}
			})
		} else {
			warm = false
		}
	}
	if !warm {
		r.loop(n, func(lo, hi int) {
			for v := lo; v < hi; v++ {
				if active[v] {
					r.x[v] = uniform
				} else {
					r.x[v] = 0
				}
			}
		})
	}

	y := make([]float64, n)
	z := make([]float64, n)
	opt := r.cfg.Opts
	invNA := 1 / float64(na)
	for it := 0; it < opt.MaxIter; it++ {
		st.Iterations = it + 1
		var danglingA atomicFloat64
		r.loop(n, func(lo, hi int) {
			var d float64
			for u := lo; u < hi; u++ {
				if deg := r.g.OutDegree(int32(u)); deg > 0 {
					z[u] = r.x[u] / float64(deg)
				} else {
					z[u] = 0
					if active[u] {
						d += r.x[u]
					}
				}
			}
			danglingA.add(d)
		})
		base := opt.Alpha*invNA + (1-opt.Alpha)*danglingA.load()*invNA
		var deltaA atomicFloat64
		r.loop(n, func(lo, hi int) {
			var delta float64
			for v := lo; v < hi; v++ {
				if !active[v] {
					y[v] = 0
					continue
				}
				var acc float64
				r.g.ForEachInNeighbor(int32(v), func(u int32) { acc += z[u] })
				nv := base + (1-opt.Alpha)*acc
				delta += math.Abs(nv - r.x[v])
				y[v] = nv
			}
			deltaA.add(delta)
		})
		r.x, y = y, r.x
		if deltaA.load() < opt.Tol {
			st.Converged = true
			break
		}
	}
}

// atomicFloat64 mirrors the accumulator in internal/core (kept local to
// avoid a dependency from a baseline onto the contribution package).
type atomicFloat64 struct{ bits atomic.Uint64 }

func (a *atomicFloat64) add(delta float64) {
	if delta == 0 {
		return
	}
	for {
		old := a.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + delta)
		if a.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

func (a *atomicFloat64) load() float64 { return math.Float64frombits(a.bits.Load()) }
