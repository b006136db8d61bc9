package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"pmpr/internal/csr"
	"pmpr/internal/events"
	"pmpr/internal/pagerank"
	"pmpr/internal/sched"
)

// edgeLog returns the symmetrized log of undirected edges, the i-th at
// time i, over n vertices.
func edgeLog(t *testing.T, n int32, edges [][2]int32) *events.Log {
	t.Helper()
	evs := make([]events.Event, len(edges))
	for i, e := range edges {
		evs[i] = ev(e[0], e[1], int64(i))
	}
	l, err := events.NewLog(evs, n)
	if err != nil {
		t.Fatalf("NewLog: %v", err)
	}
	return l.Symmetrize()
}

// twoCoreSize counts the vertices of the 2-core of window [ts, te] of
// the symmetrized log l by peeling a map-based adjacency: a vertex with
// at most one neighbour left goes, self-loops aside, until none does.
func twoCoreSize(l *events.Log, ts, te int64) int {
	adj := map[int32]map[int32]bool{}
	for _, e := range l.Slice(ts, te) {
		for _, v := range []int32{e.U, e.V} {
			if adj[v] == nil {
				adj[v] = map[int32]bool{}
			}
		}
		if e.U != e.V {
			adj[e.U][e.V] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for v, nb := range adj {
			if len(nb) <= 1 {
				for u := range nb {
					delete(adj[u], v)
				}
				delete(adj, v)
				changed = true
			}
		}
	}
	return len(adj)
}

// checkWindowsAgainstReference requires every window of s to lie within
// its ErrorBound of pagerank.Reference solved to 1e-13, plus 1e-12 for
// the reference's own error, and its CoreVertices to be the window's
// 2-core. A window with no core must have been solved in Init: no
// iteration, converged, and a true residual at rounding level.
func checkWindowsAgainstReference(t *testing.T, label string, l *events.Log, spec events.WindowSpec, s *Series) (forests int) {
	t.Helper()
	exact := pagerank.Defaults()
	exact.Tol, exact.MaxIter = 1e-13, 1000
	for w := 0; w < spec.Count; w++ {
		res := s.Window(w)
		g, err := csr.FromLogWindow(l, spec.Start(w), spec.End(w))
		if err != nil {
			t.Fatalf("%s window %d: oracle graph: %v", label, w, err)
		}
		want, err := pagerank.Reference(g, exact)
		if err != nil {
			t.Fatalf("%s window %d: oracle: %v", label, w, err)
		}
		var dist float64
		for v, x := range res.Dense(l.NumVertices()) {
			dist += math.Abs(x - want[v])
		}
		if dist > res.ErrorBound+1e-12 {
			t.Errorf("%s window %d: L1 distance %v to the oracle exceeds the bound %v (residual %v, %d iterations)",
				label, w, dist, res.ErrorBound, res.FinalResidual, res.Iterations)
		}
		if core := twoCoreSize(l, spec.Start(w), spec.End(w)); int(res.CoreVertices) != core {
			t.Errorf("%s window %d: %d core vertices, the 2-core has %d", label, w, res.CoreVertices, core)
		}
		if res.ActiveVertices > 0 && res.CoreVertices == 0 {
			forests++
			if res.Iterations != 0 || !res.Converged || res.FinalResidual > 1e-14 {
				t.Errorf("%s window %d is a forest but ran %d iterations (converged %v, residual %v)",
					label, w, res.Iterations, res.Converged, res.FinalResidual)
			}
		}
	}
	return forests
}

// TestPeelEdgeCases solves hand-built symmetrized logs under the
// default plan, which runs conjugate gradient: forests the peel solves
// outright, a vertex whose only run is a self-loop, and graphs with a
// 2-core beside or under trees. The first window sees every event of
// a log, the later ones its later events.
func TestPeelEdgeCases(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	for _, c := range []struct {
		name   string
		n      int32
		edges  [][2]int32
		forest bool // every window is a forest
	}{
		{"single edge", 2, [][2]int32{{0, 1}}, true},
		{"path", 6, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}}, true},
		{"star", 7, [][2]int32{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}, {0, 6}}, true},
		{"self-loop only", 5, [][2]int32{{2, 2}, {0, 1}, {3, 3}, {3, 4}, {4, 1}}, true},
		{"triangle with a tail", 6, [][2]int32{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 5}}, false},
		{"tree beside a cycle", 9, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {4, 5}, {4, 6}, {6, 7}, {7, 8}}, false},
		{"cycle with self-loops and chords", 6, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 0}, {2, 2}, {0, 2}, {3, 4}, {4, 4}, {5, 5}}, false},
	} {
		l := edgeLog(t, c.n, c.edges)
		m := int64(len(c.edges))
		spec := events.WindowSpec{T0: 0, Delta: m, Slide: max(1, m/3), Count: 3}
		for _, p := range []*sched.Pool{nil, pool} {
			label := fmt.Sprintf("%s/pool=%v", c.name, p != nil)
			eng, err := NewEngine(l, spec, DefaultConfig(), p)
			if err != nil {
				t.Fatalf("%s: NewEngine: %v", label, err)
			}
			if u := eng.Plan().Update(); u != UpdateCG {
				t.Fatalf("%s: plan runs %q, want %q", label, u, UpdateCG)
			}
			s, err := eng.Run(context.Background())
			if err != nil {
				t.Fatalf("%s: Run: %v", label, err)
			}
			forests := checkWindowsAgainstReference(t, label, l, spec, s)
			nonEmpty := 0
			for w := 0; w < s.Len(); w++ {
				if s.Window(w).ActiveVertices > 0 {
					nonEmpty++
				}
			}
			if c.forest && forests != nonEmpty {
				t.Errorf("%s: %d of %d nonempty windows solved as forests", label, forests, nonEmpty)
			}
			if !c.forest && s.Window(0).CoreVertices == 0 {
				t.Errorf("%s: window 0 has no core", label)
			}
			if got := s.Report.ForestWindows; got != forests {
				t.Errorf("%s: report counts %d forest windows, want %d", label, got, forests)
			}
		}
	}
}

// TestPeelOnRandomWindows checks random symmetrized logs, sparse enough
// that most windows have trees hanging off a 2-core, at the default
// tolerance and at 1e-15, where the true residual of the back-substituted
// vector often misses the tolerance the core's recursive residual met,
// so the solve restarts on the core.
func TestPeelOnRandomWindows(t *testing.T) {
	for _, tol := range []float64{1e-8, 1e-15} {
		for seed := int64(1); seed <= 3; seed++ {
			label := fmt.Sprintf("tol=%g seed=%d", tol, seed)
			l := randomLog(t, seed, 40, 300, 3000).Symmetrize()
			spec, err := events.Span(l, 400, 150)
			if err != nil {
				t.Fatalf("%s: Span: %v", label, err)
			}
			cfg := DefaultConfig()
			cfg.Opts.Tol = tol
			cfg.Opts.MaxIter = 200
			eng, err := NewEngine(l, spec, cfg, nil)
			if err != nil {
				t.Fatalf("%s: NewEngine: %v", label, err)
			}
			s, err := eng.Run(context.Background())
			if err != nil {
				t.Fatalf("%s: Run: %v", label, err)
			}
			checkWindowsAgainstReference(t, label, l, spec, s)
			if share := s.Report.CoreShare; !(share > 0 && share < 1) {
				t.Errorf("%s: core share %v, want a 2-core smaller than the windows", label, share)
			}
			for w := 0; w < s.Len(); w++ {
				if res := s.Window(w); !res.Converged {
					t.Errorf("%s window %d: not converged (residual %v after %d iterations)", label, w, res.FinalResidual, res.Iterations)
				}
			}
		}
	}
}

// TestPeelCountsEveryPass checks the counted work of forest windows,
// which make no iteration: the peel walks every live run and visits
// every active vertex once, the stop's back-substitution visits them
// again, and its true-residual pull walks every live run and visits
// every active vertex a third time.
func TestPeelCountsEveryPass(t *testing.T) {
	edges := [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {1, 5}, {5, 6}, {6, 6}, {7, 8}, {8, 9}, {9, 2}}
	l := edgeLog(t, 10, edges)
	spec := events.WindowSpec{T0: 0, Delta: 4, Slide: 2, Count: 4}
	cfg := DefaultConfig()
	cfg.NumMultiWindows = 2
	eng, err := NewEngine(l, spec, cfg, nil)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	s, err := eng.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := s.Report.ForestWindows; got != spec.Count {
		t.Fatalf("%d of %d windows are forests", got, spec.Count)
	}
	var runs, pairs int64
	for w := 0; w < spec.Count; w++ {
		mw := eng.Temporal().ForWindow(w)
		runs += 2 * liveInRun(mw, w)
		pairs += 3 * activeInWindow(mw, w)
	}
	if got := s.Report.RunsScanned; got != runs {
		t.Errorf("RunsScanned = %d, want %d", got, runs)
	}
	if got := s.Report.PairsSwept; got != pairs {
		t.Errorf("PairsSwept = %d, want %d", got, pairs)
	}
	if s.Report.TotalIterations != 0 || s.Report.CoreShare != 0 || s.Report.TotalSweeps != int64(spec.Count) {
		t.Errorf("forests report %d iterations, %d sweeps and core share %v",
			s.Report.TotalIterations, s.Report.TotalSweeps, s.Report.CoreShare)
	}
}

// TestPeelCountsCorePasses checks the counted work of one window with a
// core, the triangle 0-1-2 with the tail 2-3-4-5, stopped after one CG
// step. Its 12 live runs split into the tail's 5 (5 has one, 4 and 3
// two each), which the peel walks, and the core's 7. The passes:
//
//	peel          5 runs, 3 vertices (5, 4, 3)
//	restart       7 runs, 3 vertices (the core)
//	one CG step   7 runs, 3 vertices
//	stop          back-substitution: 3 vertices;
//	              true-residual pull: 12 runs, 6 vertices
func TestPeelCountsCorePasses(t *testing.T) {
	edges := [][2]int32{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 5}}
	l := edgeLog(t, 6, edges)
	spec := events.WindowSpec{T0: 0, Delta: int64(len(edges)), Slide: 1, Count: 1}
	cfg := DefaultConfig()
	cfg.NumMultiWindows = 1
	cfg.Opts.MaxIter = 1
	eng, err := NewEngine(l, spec, cfg, nil)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	s, err := eng.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	res := s.Window(0)
	if res.ActiveVertices != 6 || res.CoreVertices != 3 || res.Iterations != 1 {
		t.Fatalf("window: %d active, %d core, %d iterations; want 6, 3, 1",
			res.ActiveVertices, res.CoreVertices, res.Iterations)
	}
	if got, want := s.Report.RunsScanned, int64(5+7+7+12); got != want {
		t.Errorf("RunsScanned = %d, want %d", got, want)
	}
	if got, want := s.Report.PairsSwept, int64(3+3+3+3+6); got != want {
		t.Errorf("PairsSwept = %d, want %d", got, want)
	}
	if s.Report.TotalSweeps != 1 || s.Report.ForestWindows != 0 || s.Report.CoreShare != 0.5 {
		t.Errorf("report: %d sweeps, %d forest windows, core share %v; want 1, 0, 0.5",
			s.Report.TotalSweeps, s.Report.ForestWindows, s.Report.CoreShare)
	}
}
