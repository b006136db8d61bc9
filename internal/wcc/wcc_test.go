package wcc

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

// naiveComponents labels window [ts, te] by BFS over the undirected
// deduplicated edge set; returns (labels, numComponents, largest).
func naiveComponents(l *events.Log, ts, te int64) (map[int32]int32, int32, int32) {
	adj := make(map[int32][]int32)
	seen := make(map[int32]bool)
	for _, e := range l.Slice(ts, te) {
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
		seen[e.U] = true
		seen[e.V] = true
	}
	labels := make(map[int32]int32)
	var comps, largest int32
	for v := range seen {
		if _, done := labels[v]; done {
			continue
		}
		comps++
		var size int32
		queue := []int32{v}
		labels[v] = v
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			size++
			for _, y := range adj[x] {
				if _, done := labels[y]; !done {
					labels[y] = v
					queue = append(queue, y)
				}
			}
		}
		if size > largest {
			largest = size
		}
	}
	return labels, comps, largest
}

// multiWindowCounts are the partitionings every oracle check runs
// over: the whole sequence in one multi-window graph, and split in 3.
var multiWindowCounts = []int{1, 3}

func TestComponentsMatchOracle(t *testing.T) {
	pool := sched.NewPool(3)
	defer pool.Close()
	for trial := 0; trial < 15; trial++ {
		rng := rand.New(rand.NewSource(int64(200 + trial)))
		n := int32(rng.Intn(40) + 3)
		raw := randomLog(t, int64(300+trial), n, rng.Intn(300)+10, 2000)
		spec, err := events.Span(raw, int64(rng.Intn(400)+1), int64(rng.Intn(150)+1))
		if err != nil {
			t.Fatalf("Span: %v", err)
		}
		for _, directed := range []bool{true, false} {
			l := raw
			if !directed {
				l = raw.Symmetrize() // directed=false expects a symmetrized log
			}
			for _, mw := range multiWindowCounts {
				tg, err := tcsr.Build(l, spec, mw, directed)
				if err != nil {
					t.Fatalf("Build(mw=%d): %v", mw, err)
				}
				tag := fmt.Sprintf("trial %d directed=%v mw=%d", trial, directed, mw)
				want := make([]WindowResult, spec.Count)
				for w := range want {
					labels, comps, largest := naiveComponents(l, spec.Start(w), spec.End(w))
					r := Window(tg, w)
					if r.Components != comps {
						t.Fatalf("%s w %d: %d components, oracle %d", tag, w, r.Components, comps)
					}
					if r.LargestSize != largest {
						t.Fatalf("%s w %d: largest %d, oracle %d", tag, w, r.LargestSize, largest)
					}
					if r.ActiveVertices != int32(len(labels)) {
						t.Fatalf("%s w %d: active %d, oracle %d", tag, w, r.ActiveVertices, len(labels))
					}
					// Same-component equivalence must match the oracle.
					for a := range labels {
						for b := range labels {
							if r.SameComponent(a, b) != (labels[a] == labels[b]) {
								t.Fatalf("%s w %d: SameComponent(%d,%d) wrong", tag, w, a, b)
							}
						}
						if r.Label(a) < 0 {
							t.Fatalf("%s w %d: active vertex %d unlabeled", tag, w, a)
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
							g.Components != r.Components || g.LargestSize != r.LargestSize {
							t.Fatalf("%s pool=%v w %d: Run %+v, Window %+v", tag, p != nil, w, g, r)
						}
					}
				}
			}
		}
	}
}

func TestInactiveVertexLabel(t *testing.T) {
	raw, _ := events.NewLog([]events.Event{ev(0, 1, 5)}, 4)
	l := raw.Symmetrize() // directed=false expects a symmetrized log
	spec := events.WindowSpec{T0: 5, Delta: 1, Slide: 1, Count: 1}
	tg, err := tcsr.Build(l, spec, 1, false)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	r := Window(tg, 0)
	if r.Label(3) != -1 {
		t.Fatal("inactive vertex should have label -1")
	}
	if r.SameComponent(0, 3) {
		t.Fatal("inactive vertex cannot share a component")
	}
	if !r.SameComponent(0, 1) {
		t.Fatal("edge endpoints must share a component")
	}
}

func TestBalancedPartitionComponents(t *testing.T) {
	l := randomLog(t, 402, 20, 400, 1500)
	spec, err := events.Span(l, 300, 100)
	if err != nil {
		t.Fatalf("Span: %v", err)
	}
	run := func(numMW int) []WindowResult {
		tg, err := tcsr.Build(l, spec, numMW, true)
		if err != nil {
			t.Fatalf("Build(mw=%d): %v", numMW, err)
		}
		return Run(tg, nil)
	}
	a, b := run(1), run(4)
	if len(a) != spec.Count || len(b) != spec.Count {
		t.Fatalf("Run returned %d and %d windows, want %d", len(a), len(b), spec.Count)
	}
	for w := 0; w < spec.Count; w++ {
		if a[w].Components != b[w].Components || a[w].LargestSize != b[w].LargestSize ||
			a[w].ActiveVertices != b[w].ActiveVertices {
			t.Fatalf("window %d: partitioning changed the result: %+v vs %+v", w, a[w], b[w])
		}
	}
}
