package offline

import (
	"math"
	"math/rand"
	"testing"

	"pmpr/internal/csr"
	"pmpr/internal/events"
	"pmpr/internal/pagerank"
	"pmpr/internal/sched"
)

func randomLog(t *testing.T, seed int64, n int32, m int, span int64) *events.Log {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	evs := make([]events.Event, m)
	tcur := int64(0)
	for i := range evs {
		tcur += rng.Int63n(span/int64(m) + 1)
		evs[i] = events.Event{U: int32(rng.Intn(int(n))), V: int32(rng.Intn(int(n))), T: tcur}
	}
	l, err := events.NewLog(evs, n)
	if err != nil {
		t.Fatalf("NewLog: %v", err)
	}
	return l
}

func TestOfflineMatchesOracle(t *testing.T) {
	l := randomLog(t, 71, 20, 500, 2000)
	spec, err := events.Span(l, 400, 120)
	if err != nil {
		t.Fatalf("Span: %v", err)
	}
	stats, err := Run(l, spec, DefaultConfig(), nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(stats) != spec.Count {
		t.Fatalf("got %d windows, want %d", len(stats), spec.Count)
	}
	for w := 0; w < spec.Count; w++ {
		g, err := csr.FromLogWindow(l, spec.Start(w), spec.End(w))
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}
		want, err := pagerank.Reference(g, pagerank.Defaults())
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}
		if stats[w].Edges != g.NumEdges() {
			t.Fatalf("window %d: %d edges, oracle %d", w, stats[w].Edges, g.NumEdges())
		}
		for v := range want {
			if math.Abs(stats[w].Ranks[v]-want[v]) > 1e-5 {
				t.Fatalf("window %d vertex %d: got %v, oracle %v", w, v, stats[w].Ranks[v], want[v])
			}
		}
	}
}

func TestOfflineParallelMatchesSerial(t *testing.T) {
	pool := sched.NewPool(4)
	defer pool.Close()
	l := randomLog(t, 72, 25, 700, 2500)
	spec, _ := events.Span(l, 500, 100)
	serial, err := Run(l, spec, DefaultConfig(), nil)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	par, err := Run(l, spec, DefaultConfig(), pool)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	for w := range serial {
		if serial[w].Iterations != par[w].Iterations {
			t.Fatalf("window %d: iterations %d vs %d", w, serial[w].Iterations, par[w].Iterations)
		}
		for v := range serial[w].Ranks {
			if serial[w].Ranks[v] != par[w].Ranks[v] {
				t.Fatalf("window %d vertex %d differs", w, v)
			}
		}
	}
}

func TestOfflineDiscardRanks(t *testing.T) {
	l := randomLog(t, 73, 10, 100, 500)
	spec, _ := events.Span(l, 100, 50)
	cfg := DefaultConfig()
	cfg.DiscardRanks = true
	stats, err := Run(l, spec, cfg, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, st := range stats {
		if st.Ranks != nil {
			t.Fatal("ranks retained despite DiscardRanks")
		}
		if st.Iterations == 0 && st.ActiveVertices > 0 {
			t.Fatal("missing iteration stats")
		}
	}
}

func TestOfflineValidation(t *testing.T) {
	l := randomLog(t, 74, 5, 10, 50)
	cfg := DefaultConfig()
	cfg.Opts.Tol = -1
	if _, err := Run(l, events.WindowSpec{T0: 0, Delta: 5, Slide: 5, Count: 1}, cfg, nil); err == nil {
		t.Fatal("bad options accepted")
	}
	if _, err := Run(l, events.WindowSpec{}, DefaultConfig(), nil); err == nil {
		t.Fatal("bad spec accepted")
	}
}
