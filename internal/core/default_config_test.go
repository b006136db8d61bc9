package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"pmpr/internal/csr"
	"pmpr/internal/events"
	"pmpr/internal/gen"
	"pmpr/internal/pagerank"
	"pmpr/internal/sched"
)

// TestDefaultConfigWindowsWithinBound solves every window of
// internal/gen's stackoverflow and wikitalk profiles, symmetrized as
// pmrank and perf/ solve them, in the perf/ inputs' shapes (10-day
// windows sliding 1 day, 90-day windows sliding 3 days; stackoverflow
// at perf/'s scale, wikitalk at half of it), for seeds 1–3, with
// DefaultConfig on a 2-worker pool, whose plan runs conjugate gradient.
// perf/ itself checks eight windows of one seed. Every window must be decided on its
// first attempt and lie within its ErrorBound of pagerank.Run solved
// to 1e-13 in L1, plus 1e-12 for the oracle's own error and rounding.
// The oracle solves each window on its own vertices (windowOracle).
func TestDefaultConfigWindowsWithinBound(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	exact := pagerank.Defaults()
	exact.Tol, exact.MaxIter = 1e-13, 1000
	for _, in := range []struct {
		dataset      string
		scale        float64
		delta, slide int64
	}{
		{"stackoverflow", 0.02, 10 * gen.Day, gen.Day},
		{"wikitalk", 0.1, 90 * gen.Day, 3 * gen.Day},
	} {
		d, ok := gen.Get(in.dataset)
		if !ok {
			t.Fatalf("no %s profile", in.dataset)
		}
		// Under the race detector, which checks the 2-worker solve's
		// synchronization and not its numbers, one seed is enough.
		seeds := int64(3)
		if raceEnabled {
			seeds = 1
		}
		for seed := int64(1); seed <= seeds; seed++ {
			label := fmt.Sprintf("%s seed %d", in.dataset, seed)
			raw, err := d.Generate(in.scale, seed)
			if err != nil {
				t.Fatalf("%s: Generate: %v", label, err)
			}
			l := raw.Symmetrize()
			spec, err := events.Span(l, in.delta, in.slide)
			if err != nil {
				t.Fatalf("%s: Span: %v", label, err)
			}
			eng, err := NewEngine(l, spec, DefaultConfig(), pool)
			if err != nil {
				t.Fatalf("%s: NewEngine: %v", label, err)
			}
			if u := eng.Plan().Update(); u != UpdateCG {
				t.Fatalf("%s: the default plan runs %q, want %q", label, u, UpdateCG)
			}
			s, err := eng.Run(context.Background())
			if err != nil {
				t.Fatalf("%s: Run: %v", label, err)
			}
			for w := 0; w < s.Len(); w++ {
				res := s.Window(w)
				if res.Status != WindowOK {
					t.Fatalf("%s window %d: status %v", label, w, res.Status)
				}
				want, err := windowOracle(l, spec.Start(w), spec.End(w), exact)
				if err != nil {
					t.Fatalf("%s window %d: oracle: %v", label, w, err)
				}
				var dist float64
				for v, r := range want {
					dist += math.Abs(res.Rank(v) - r)
				}
				res.ForEach(func(v int32, r float64) {
					if _, ok := want[v]; !ok {
						dist += r
					}
				})
				if dist > res.ErrorBound+1e-12 {
					t.Fatalf("%s window %d: L1 distance %v to the oracle exceeds the bound %v (residual %v, %d iterations)",
						label, w, dist, res.ErrorBound, res.FinalResidual, res.Iterations)
				}
			}
		}
	}
}

// windowOracle solves window [ts, te] of l with pagerank.Run on a graph
// of the window's own vertices, relabeled densely in order of first
// appearance, so its cost does not grow with the universe, and returns
// the ranks by global id.
func windowOracle(l *events.Log, ts, te int64, opt pagerank.Options) (map[int32]float64, error) {
	local := map[int32]int32{}
	var global []int32
	id := func(g int32) int32 {
		v, ok := local[g]
		if !ok {
			v = int32(len(global))
			local[g] = v
			global = append(global, g)
		}
		return v
	}
	evs := append([]events.Event(nil), l.Slice(ts, te)...)
	for i := range evs {
		evs[i].U, evs[i].V = id(evs[i].U), id(evs[i].V)
	}
	g, err := csr.FromEvents(evs, int32(len(global)))
	if err != nil {
		return nil, err
	}
	res, err := pagerank.Run(g, nil, opt)
	if err != nil {
		return nil, err
	}
	if !res.Converged {
		return nil, fmt.Errorf("no convergence in %d iterations", res.Iterations)
	}
	ranks := make(map[int32]float64, len(global))
	for v, r := range res.Ranks {
		ranks[global[v]] = r
	}
	return ranks, nil
}
