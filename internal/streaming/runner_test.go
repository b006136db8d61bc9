package streaming

import (
	"math"
	"math/rand"
	"testing"

	"pmpr/internal/csr"
	"pmpr/internal/events"
	"pmpr/internal/offline"
	"pmpr/internal/pagerank"
	"pmpr/internal/sched"
)

func ev(u, v int32, t int64) events.Event { return events.Event{U: u, V: v, T: t} }

func randomLog(t *testing.T, seed int64, n int32, m int, span int64) *events.Log {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	evs := make([]events.Event, m)
	tcur := int64(0)
	for i := range evs {
		tcur += rng.Int63n(span/int64(m) + 1)
		evs[i] = ev(int32(rng.Intn(int(n))), int32(rng.Intn(int(n))), tcur)
	}
	l, err := events.NewLog(evs, n)
	if err != nil {
		t.Fatalf("NewLog: %v", err)
	}
	return l
}

func oracle(t *testing.T, l *events.Log, spec events.WindowSpec, w int) []float64 {
	t.Helper()
	g, err := csr.FromLogWindow(l, spec.Start(w), spec.End(w))
	if err != nil {
		t.Fatalf("oracle graph: %v", err)
	}
	want, err := pagerank.Reference(g, pagerank.Defaults())
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	return want
}

func TestStreamingMatchesOracle(t *testing.T) {
	l := randomLog(t, 61, 25, 800, 3000)
	spec, err := events.Span(l, 500, 150)
	if err != nil {
		t.Fatalf("Span: %v", err)
	}
	cfg := DefaultConfig()
	cfg.Directed = true
	r, err := NewRunner(l, spec, cfg, nil)
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	stats, err := r.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for w := 0; w < spec.Count; w++ {
		want := oracle(t, l, spec, w)
		for v := range want {
			if math.Abs(stats[w].Ranks[v]-want[v]) > 1e-5 {
				t.Fatalf("window %d vertex %d: got %v, oracle %v", w, v, stats[w].Ranks[v], want[v])
			}
		}
	}
}

func TestStreamingParallelKernelMatches(t *testing.T) {
	pool := sched.NewPool(4)
	defer pool.Close()
	l := randomLog(t, 62, 20, 500, 2000)
	spec, _ := events.Span(l, 400, 120)
	cfg := DefaultConfig()
	cfg.Directed = true
	r, err := NewRunner(l, spec, cfg, pool)
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	stats, err := r.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for w := 0; w < spec.Count; w++ {
		want := oracle(t, l, spec, w)
		for v := range want {
			if math.Abs(stats[w].Ranks[v]-want[v]) > 1e-5 {
				t.Fatalf("window %d vertex %d: got %v, oracle %v", w, v, stats[w].Ranks[v], want[v])
			}
		}
	}
}

// TestWarmRestartReducesIterations compares the streaming model's
// warm-started solves against the offline model's cold solves of the
// same windows.
func TestWarmRestartReducesIterations(t *testing.T) {
	l := randomLog(t, 64, 40, 3000, 5000)
	spec, _ := events.Span(l, 2500, 120)
	cfg := DefaultConfig()
	cfg.Directed = true
	cfg.DiscardRanks = true
	r, err := NewRunner(l, spec, cfg, nil)
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	stats, err := r.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	coldCfg := offline.DefaultConfig()
	coldCfg.DiscardRanks = true
	coldStats, err := offline.Run(l, spec, coldCfg, nil)
	if err != nil {
		t.Fatalf("offline.Run: %v", err)
	}
	warm, cold := 0, 0
	for w := range stats {
		warm += stats[w].Iterations
		cold += coldStats[w].Iterations
	}
	if warm >= cold {
		t.Fatalf("warm restart iterations %d not below offline cold start %d", warm, cold)
	}
}

func TestBatchAccounting(t *testing.T) {
	// Windows [0,10], [5,15]: events at 2, 7, 12 -> window 1 removes
	// the event at 2 and inserts the one at 12.
	l, _ := events.NewLog([]events.Event{
		ev(0, 1, 2), ev(1, 2, 7), ev(2, 0, 12),
	}, 3)
	spec := events.WindowSpec{T0: 0, Delta: 10, Slide: 5, Count: 2}
	cfg := DefaultConfig()
	cfg.Directed = true
	r, _ := NewRunner(l, spec, cfg, nil)
	stats, err := r.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stats[0].Inserted != 2 || stats[0].Removed != 0 {
		t.Fatalf("window 0 batch: +%d -%d", stats[0].Inserted, stats[0].Removed)
	}
	if stats[1].Inserted != 1 || stats[1].Removed != 1 {
		t.Fatalf("window 1 batch: +%d -%d", stats[1].Inserted, stats[1].Removed)
	}
	if r.Graph().NumEdges() != 2 {
		t.Fatalf("final graph has %d edges, want 2", r.Graph().NumEdges())
	}
}

func TestDisjointWindows(t *testing.T) {
	// Slide > delta: the whole graph turns over between windows.
	l, _ := events.NewLog([]events.Event{
		ev(0, 1, 0), ev(1, 0, 1),
		ev(2, 3, 100), ev(3, 2, 101),
	}, 4)
	spec := events.WindowSpec{T0: 0, Delta: 10, Slide: 100, Count: 2}
	cfg := DefaultConfig()
	cfg.Directed = true
	r, _ := NewRunner(l, spec, cfg, nil)
	stats, err := r.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stats[1].Removed != 2 || stats[1].Inserted != 2 {
		t.Fatalf("turnover batch: +%d -%d", stats[1].Inserted, stats[1].Removed)
	}
	if stats[1].Ranks[0] != 0 || stats[1].Ranks[2] <= 0 {
		t.Fatal("window 1 ranks wrong after turnover")
	}
}

func TestEmptyWindowStreaming(t *testing.T) {
	l, _ := events.NewLog([]events.Event{ev(0, 1, 0)}, 2)
	spec := events.WindowSpec{T0: 0, Delta: 5, Slide: 50, Count: 3}
	cfg := DefaultConfig()
	cfg.Directed = true
	r, _ := NewRunner(l, spec, cfg, nil)
	stats, err := r.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for w := 1; w < 3; w++ {
		if stats[w].ActiveVertices != 0 || !stats[w].Converged {
			t.Fatalf("empty window %d mishandled: %+v", w, stats[w])
		}
	}
}

func TestRunnerValidation(t *testing.T) {
	l, _ := events.NewLog([]events.Event{ev(0, 1, 0)}, 2)
	spec := events.WindowSpec{T0: 0, Delta: 5, Slide: 5, Count: 1}
	cfg := DefaultConfig()
	cfg.Opts.Alpha = 7
	if _, err := NewRunner(l, spec, cfg, nil); err == nil {
		t.Fatal("bad options accepted")
	}
	if _, err := NewRunner(l, events.WindowSpec{}, DefaultConfig(), nil); err == nil {
		t.Fatal("bad spec accepted")
	}
}

func TestDiscardRanksStreaming(t *testing.T) {
	l := randomLog(t, 65, 10, 100, 500)
	spec, _ := events.Span(l, 100, 50)
	cfg := DefaultConfig()
	cfg.Directed = true
	cfg.DiscardRanks = true
	r, _ := NewRunner(l, spec, cfg, nil)
	stats, err := r.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, st := range stats {
		if st.Ranks != nil {
			t.Fatal("ranks retained despite DiscardRanks")
		}
	}
}

func TestStepOutOfOrderDetected(t *testing.T) {
	// Step is documented to advance to the next window; sliding the
	// same window twice removes events that are no longer present and
	// must surface an error rather than corrupt the graph.
	l := randomLog(t, 67, 10, 200, 1000)
	spec, _ := events.Span(l, 300, 100)
	if spec.Count < 3 {
		t.Skip("need at least 3 windows")
	}
	r, _ := NewRunner(l, spec, DefaultConfig(), nil)
	if _, err := r.Step(0); err != nil {
		t.Fatalf("Step(0): %v", err)
	}
	if _, err := r.Step(1); err != nil {
		t.Fatalf("Step(1): %v", err)
	}
	if _, err := r.Step(1); err == nil {
		t.Fatal("repeating a slide should fail on double-removal")
	}
}
