package kcore

import (
	"fmt"
	"math/rand"
	"testing"

	"pmpr/internal/events"
	"pmpr/internal/sched"
	"pmpr/internal/tcsr"
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

// naiveCoreness computes coreness of the undirected deduplicated window
// graph by repeated minimum-degree removal.
func naiveCoreness(l *events.Log, ts, te int64) map[int32]int32 {
	adj := make(map[int32]map[int32]bool)
	add := func(a, b int32) {
		if adj[a] == nil {
			adj[a] = make(map[int32]bool)
		}
		adj[a][b] = true
	}
	for _, e := range l.Slice(ts, te) {
		add(e.U, e.V)
		add(e.V, e.U)
	}
	core := make(map[int32]int32)
	k := int32(0)
	for len(adj) > 0 {
		// Remove all vertices with degree <= k until none remain, then
		// increase k.
		removedAny := true
		for removedAny {
			removedAny = false
			for v, ns := range adj {
				if int32(len(ns)) <= k {
					core[v] = k
					for u := range ns {
						delete(adj[u], v)
						if len(adj[u]) == 0 && u != v {
							core[u] = k
							delete(adj, u)
						}
					}
					delete(adj, v)
					removedAny = true
				}
			}
		}
		k++
	}
	return core
}

// builds are the two partitionings every oracle check runs over.
var builds = []struct {
	name  string
	build func(*events.Log, events.WindowSpec, int, bool) (*tcsr.Temporal, error)
}{{"uniform", tcsr.Build}, {"balanced", tcsr.BuildBalanced}}

func TestCorenessMatchesOracle(t *testing.T) {
	pool := sched.NewPool(3)
	defer pool.Close()
	for trial := 0; trial < 15; trial++ {
		rng := rand.New(rand.NewSource(int64(500 + trial)))
		n := int32(rng.Intn(35) + 3)
		raw := randomLog(t, int64(600+trial), n, rng.Intn(400)+10, 2000)
		spec, err := events.Span(raw, int64(rng.Intn(400)+1), int64(rng.Intn(150)+1))
		if err != nil {
			t.Fatalf("Span: %v", err)
		}
		for _, directed := range []bool{true, false} {
			l := raw
			if !directed {
				l = raw.Symmetrize() // directed=false expects a symmetrized log
			}
			for _, bl := range builds {
				tg, err := bl.build(l, spec, 3, directed)
				if err != nil {
					t.Fatalf("%s build: %v", bl.name, err)
				}
				tag := fmt.Sprintf("trial %d directed=%v %s", trial, directed, bl.name)
				want := make([]WindowResult, spec.Count)
				for w := range want {
					oracle := naiveCoreness(l, spec.Start(w), spec.End(w))
					r := Window(tg, w)
					if int(r.ActiveVertices) != len(oracle) {
						t.Fatalf("%s w %d: active %d, oracle %d", tag, w, r.ActiveVertices, len(oracle))
					}
					var wantMax, wantMaxSize int32
					for _, c := range oracle {
						switch {
						case c > wantMax:
							wantMax = c
							wantMaxSize = 1
						case c == wantMax:
							wantMaxSize++
						}
					}
					if r.MaxCore != wantMax || r.MaxCoreSize != wantMaxSize {
						t.Fatalf("%s w %d: max core %d(size %d), oracle %d(size %d)",
							tag, w, r.MaxCore, r.MaxCoreSize, wantMax, wantMaxSize)
					}
					for v, c := range oracle {
						if got := r.Coreness(v); got != c {
							t.Fatalf("%s w %d vertex %d: coreness %d, oracle %d", tag, w, v, got, c)
						}
					}
					want[w] = r
				}
				// Run's summaries must equal Window's, serially and on the pool.
				for _, p := range []*sched.Pool{nil, pool} {
					got := Run(tg, p)
					if len(got) != spec.Count {
						t.Fatalf("%s pool=%v: Run returned %d windows, want %d", tag, p != nil, len(got), spec.Count)
					}
					for w, g := range got {
						r := want[w]
						if g.Window != r.Window || g.ActiveVertices != r.ActiveVertices ||
							g.MaxCore != r.MaxCore || g.MaxCoreSize != r.MaxCoreSize {
							t.Fatalf("%s pool=%v w %d: Run %+v, Window %+v", tag, p != nil, w, g, r)
						}
					}
				}
			}
		}
	}
}

// TestSolveDoesNotAllocate pins the peeler's buffer reuse: once a
// solver has seen a window, solving it again allocates nothing.
func TestSolveDoesNotAllocate(t *testing.T) {
	raw := randomLog(t, 702, 30, 400, 2000)
	l := raw.Symmetrize()
	spec, err := events.Span(l, 400, 100)
	if err != nil {
		t.Fatalf("Span: %v", err)
	}
	tg, err := tcsr.Build(l, spec, 3, false)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	var s solver
	w := spec.Count / 2
	if s.solve(tg, w, false).MaxCore == 0 {
		t.Fatal("window has no edges; the measurement would be vacuous")
	}
	if allocs := testing.AllocsPerRun(20, func() { s.solve(tg, w, false) }); allocs != 0 {
		t.Fatalf("solving a window allocates %v times, want 0", allocs)
	}
}

func TestKnownStructures(t *testing.T) {
	// A 4-clique plus a pendant vertex: clique coreness 3, pendant 1.
	var evs []events.Event
	tcur := int64(0)
	for i := int32(0); i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			tcur++
			evs = append(evs, ev(i, j, tcur))
		}
	}
	tcur++
	evs = append(evs, ev(0, 4, tcur))
	raw, _ := events.NewLog(evs, 5)
	l := raw.Symmetrize() // Directed=false expects a symmetrized log
	spec := events.WindowSpec{T0: 0, Delta: 100, Slide: 100, Count: 1}
	tg, err := tcsr.Build(l, spec, 1, false)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	r := Window(tg, 0)
	if r.MaxCore != 3 || r.MaxCoreSize != 4 {
		t.Fatalf("clique core: max %d size %d", r.MaxCore, r.MaxCoreSize)
	}
	for v := int32(0); v < 4; v++ {
		if r.Coreness(v) != 3 {
			t.Fatalf("clique vertex %d coreness %d", v, r.Coreness(v))
		}
	}
	if r.Coreness(4) != 1 {
		t.Fatalf("pendant coreness %d", r.Coreness(4))
	}
}

func TestCorePeelingOverTime(t *testing.T) {
	// A triangle exists only in the first window; later only a path
	// remains: max core drops from 2 to 1.
	evs := []events.Event{
		ev(0, 1, 0), ev(1, 2, 1), ev(2, 0, 2), // triangle at t=0..2
		ev(0, 1, 100), ev(1, 2, 101), // path at t=100..101
	}
	raw, _ := events.NewLog(evs, 3)
	l := raw.Symmetrize()
	spec := events.WindowSpec{T0: 0, Delta: 10, Slide: 100, Count: 2}
	tg, err := tcsr.Build(l, spec, 2, false)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	s := Run(tg, nil)
	if s[0].MaxCore != 2 {
		t.Fatalf("window 0 max core %d, want 2", s[0].MaxCore)
	}
	if s[1].MaxCore != 1 {
		t.Fatalf("window 1 max core %d, want 1", s[1].MaxCore)
	}
}
