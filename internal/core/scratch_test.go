package core

import (
	"context"
	"fmt"
	"math"
	"testing"
	"unsafe"

	"pmpr/internal/events"
	"pmpr/internal/sched"
)

func TestWorkspaceReusedBufferReadsZero(t *testing.T) {
	a := &scratchArena{}
	ws := a.take()

	s := size(ws, &ws.z, 64)
	for i := range s {
		s[i] = float64(i) + 1
	}
	r := ws.rank(64)
	for i := range r {
		r[i] = float64(i) + 1
	}
	ws.recycle(r)
	a.give(ws)

	ws = a.take()
	got := size(ws, &ws.z, 32)
	if &got[0] != &s[0] {
		t.Fatalf("a smaller request must reuse the role buffer")
	}
	gotRank := ws.rank(32)
	if &gotRank[0] != &r[0] {
		t.Fatalf("a smaller rank request must reuse the stashed vector")
	}
	for i := range got {
		if got[i] != 0 || gotRank[i] != 0 {
			t.Fatalf("reused buffers not zeroed at %d: z %v, rank %v", i, got[i], gotRank[i])
		}
	}
	ws.recycle(gotRank)
	a.give(ws)
	if st := a.stats(); st.Gets != 4 || st.Misses != 2 || st.Hits != 2 || st.Outstanding() != 0 {
		t.Fatalf("stats = %+v, want 4 gets / 2 hits / 2 misses / none outstanding", st)
	}
}

func TestWorkspaceGrowsOnlyWhenNeeded(t *testing.T) {
	a := &scratchArena{}
	ws := a.take()
	defer a.give(ws)

	size(ws, &ws.index, 4)
	big := size(ws, &ws.index, 1024) // the 4-entry buffer can't serve this
	if st := a.stats(); st.Misses != 2 {
		t.Fatalf("misses = %d, want 2 (both requests had to allocate)", st.Misses)
	}
	if got := size(ws, &ws.index, 16); &got[0] != &big[0] || cap(got) != 1024 {
		t.Fatalf("a smaller request must reuse the grown buffer")
	}
	if st := a.stats(); st.Misses != 2 {
		t.Fatalf("misses = %d after a fitting request, want 2", st.Misses)
	}
}

// TestSecondTakeReusesWorkspace checks the arena's stack: a unit that
// starts after another gave its workspace back gets that workspace,
// and a unit that starts while another holds one (a nested steal) gets
// its own.
func TestSecondTakeReusesWorkspace(t *testing.T) {
	a := &scratchArena{}
	first := a.take()
	a.give(first)
	again := a.take()
	if again != first {
		t.Fatalf("a second take must reuse the idle workspace")
	}
	nested := a.take()
	if nested == again {
		t.Fatalf("a take while the workspace is held must not share it")
	}
	a.give(nested)
	a.give(again)
	if len(a.idle) != 2 {
		t.Fatalf("idle workspaces = %d, want 2", len(a.idle))
	}
}

// TestRetainedRankVectorIsExactLength checks that a retained window
// never pins more memory than its entries: the stash serves any rank
// vector that fits, since no vector leaves its unit, and a run
// retaining ranks over units of different sizes — a forked Jacobi
// plan among them — keeps entries with capacity == length.
func TestRetainedRankVectorIsExactLength(t *testing.T) {
	a := &scratchArena{}
	ws := a.take()
	ws.recycle(make([]float64, 100))
	r := ws.rank(10)
	if cap(r) != 100 {
		t.Fatalf("a rank vector should reuse the stashed 100-entry one, got capacity %d", cap(r))
	}
	ws.recycle(r)
	if r := ws.rank(200); cap(r) != 200 {
		t.Fatalf("fresh rank vector has capacity %d for length 200", cap(r))
	}
	if len(ws.ranks) != 0 {
		t.Fatalf("the stash kept %d vectors that fit no request", len(ws.ranks))
	}
	a.give(ws)

	pool := sched.NewPool(2)
	defer pool.Close()
	l := randomLog(t, 81, 40, 400, 1200)
	spec := events.WindowSpec{T0: 0, Delta: 160, Slide: 60, Count: 18}
	cfg := equivCfg(AppLevel, true)
	cfg.NumMultiWindows = spec.Count
	eng, err := NewEngine(l, spec, cfg, pool)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if eng.Plan().Update() != UpdateJacobi {
		t.Fatalf("a 2-worker app-level plan should sweep Jacobi")
	}
	for run := 0; run < 2; run++ {
		s, err := eng.Run(context.Background())
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		for w := range s.Results {
			r := &s.Results[w]
			if !r.HasRanks() || cap(r.Vertices) != len(r.Vertices) || cap(r.Ranks) != len(r.Ranks) {
				t.Fatalf("run %d window %d: %d vertices (cap %d), %d ranks (cap %d), retained %v",
					run, w, len(r.Vertices), cap(r.Vertices), len(r.Ranks), cap(r.Ranks), r.HasRanks())
			}
		}
	}
}

// TestOneWindowPerUnitPinsOneWorkspacePerRunningUnit runs the layout
// with one window per multi-window, whose units all differ in size,
// several times. The arena must hold at most one workspace per unit
// that ran at once, and when one unit runs at a time, from the second
// Run on, under DiscardRanks, serve every request from what it holds
// (two workspaces may each meet the largest unit later). A workspace may pin, role by
// role, what the largest unit needs in that role: each role buffer at
// most its largest size over the units solved alone, and the stash at
// most the most rank vectors a unit held, each at most the longest.
func TestOneWindowPerUnitPinsOneWorkspacePerRunningUnit(t *testing.T) {
	l := randomLog(t, 82, 60, 900, 3000)
	spec := events.WindowSpec{T0: 0, Delta: 300, Slide: 90, Count: 30}
	pool := sched.NewPool(2)
	defer pool.Close()
	for _, c := range []struct {
		name    string
		mode    ParallelMode
		pool    *sched.Pool
		running int // units that can run at once
	}{
		{"serial", AppLevel, nil, 1},
		{"window-2", WindowLevel, pool, 2},
		{"app-2", AppLevel, pool, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := equivCfg(c.mode, true)
			cfg.NumMultiWindows = spec.Count
			cfg.DiscardRanks = true
			eng, err := NewEngine(l, spec, cfg, c.pool)
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			if len(eng.Plan().Units) != spec.Count {
				t.Fatalf("plan has %d units, want one per window", len(eng.Plan().Units))
			}
			largest := largestUnitFootprint(t, eng, c.pool).bytes()
			for run := 1; run <= 3; run++ {
				before := eng.ScratchStats()
				if _, err := eng.Run(context.Background()); err != nil {
					t.Fatalf("Run %d: %v", run, err)
				}
				d := eng.ScratchStats().Delta(before)
				if run > 1 && c.running == 1 && d.Misses != 0 {
					t.Fatalf("Run %d allocated %d buffers: %+v", run, d.Misses, d)
				}
				if d.Outstanding() != 0 {
					t.Fatalf("Run %d left %d buffers checked out", run, d.Outstanding())
				}
				idle := eng.solve.arena.idle
				if len(idle) < 1 || len(idle) > c.running {
					t.Fatalf("Run %d: arena holds %d workspaces, want 1..%d", run, len(idle), c.running)
				}
				var bytes int64
				for _, ws := range idle {
					bytes += footprintOf(ws).bytes()
				}
				if bytes > int64(len(idle))*largest {
					t.Fatalf("Run %d: %d workspaces pin %d bytes, more than %d × the largest unit's %d",
						run, len(idle), bytes, len(idle), largest)
				}
			}
		})
	}
}

// TestPoisonedWorkspaceSolvesLikeAFreshOne fills every role buffer and
// stashed rank vector of a warmed arena, to its capacity, with NaN (the
// integer roles with -1) before a Run, and requires the series to be
// bit-identical to a fresh engine's. A buffer a window reads before it
// writes it, such as a vector left by whichever unit last held the
// workspace, would carry the poison into the ranks or the residual. It
// covers the three updates, serially and at 2 workers: conjugate
// gradient and Gauss–Seidel on unforked plans (undirected on the
// symmetrized log, and directed), and Jacobi on app-level plans, which
// fork on any pool.
func TestPoisonedWorkspaceSolvesLikeAFreshOne(t *testing.T) {
	raw := randomLog(t, 84, 40, 900, 3000)
	spec := events.WindowSpec{T0: 0, Delta: 400, Slide: 110, Count: 20}
	for _, c := range []struct {
		update   string
		mode     ParallelMode
		directed bool
	}{
		{UpdateCG, WindowLevel, false},
		{UpdateGaussSeidel, WindowLevel, true},
		{UpdateJacobi, AppLevel, false},
		{UpdateJacobi, AppLevel, true},
	} {
		// A serial plan never forks, so Jacobi's "serial" case is a
		// 1-worker pool.
		for _, workers := range []int{0, 2} {
			if c.update == UpdateJacobi && workers == 0 {
				workers = 1
			}
			label := fmt.Sprintf("%s/directed=%v/workers=%d", c.update, c.directed, workers)
			t.Run(label, func(t *testing.T) {
				var pool *sched.Pool
				if workers > 0 {
					pool = sched.NewPool(workers)
					defer pool.Close()
				}
				l := raw
				if !c.directed {
					l = raw.Symmetrize()
				}
				cfg := DefaultConfig()
				cfg.Mode, cfg.Directed, cfg.NumMultiWindows = c.mode, c.directed, 2
				run := func(eng *Engine) *Series {
					t.Helper()
					s, err := eng.Run(context.Background())
					if err != nil {
						t.Fatalf("Run: %v", err)
					}
					return s
				}
				fresh, err := NewEngine(l, spec, cfg, pool)
				if err != nil {
					t.Fatalf("NewEngine: %v", err)
				}
				if u := fresh.Plan().Update(); u != c.update {
					t.Fatalf("plan runs %q, want %q", u, c.update)
				}
				want := run(fresh)
				eng, err := NewEngine(l, spec, cfg, pool)
				if err != nil {
					t.Fatalf("NewEngine: %v", err)
				}
				for rep := 0; rep < 3; rep++ {
					run(eng)
					poison(t, eng.solve.arena)
					sameWindows(t, fmt.Sprintf("%s poisoned run %d", label, rep), l.NumVertices(), run(eng), want)
				}
			})
		}
	}
}

// poison fills every role buffer and stashed rank vector of a's idle
// workspaces, to its capacity, with NaN, and the integer roles with -1.
func poison(t *testing.T, a *scratchArena) {
	t.Helper()
	nan := math.NaN()
	fill := func(s []float64) {
		for i := range s[:cap(s)] {
			s[:cap(s)][i] = nan
		}
	}
	if len(a.idle) == 0 {
		t.Fatal("the arena holds no workspace to poison")
	}
	for _, ws := range a.idle {
		for _, s := range [][]float64{ws.invdeg, ws.z, ws.zin, ws.r, ws.p, ws.q, ws.d, ws.b} {
			fill(s)
		}
		for _, s := range ws.ranks {
			fill(s)
		}
		for i := range ws.end[:cap(ws.end)] {
			ws.end[:cap(ws.end)][i] = -1
		}
		for _, s := range [][]int32{ws.index, ws.order, ws.parent, ws.left} {
			for i := range s[:cap(s)] {
				s[:cap(s)][i] = -1
			}
		}
		for i := range ws.sums[:cap(ws.sums)] {
			ws.sums[:cap(ws.sums)][i] = chunkSum{nan, nan, nan}
		}
	}
}

// footprint is what a workspace pins: the bytes of each role buffer,
// and its stash's vector count and longest vector.
type footprint struct {
	roles        [14]int64 // end, invdeg, index, z, zin, sums, r, p, q, d, b, order, parent, left
	ranks, rankN int
}

func footprintOf(ws *workspace) footprint {
	f := footprint{roles: [14]int64{
		bufBytes(ws.end), bufBytes(ws.invdeg), bufBytes(ws.index), bufBytes(ws.z),
		bufBytes(ws.zin), bufBytes(ws.sums), bufBytes(ws.r), bufBytes(ws.p), bufBytes(ws.q),
		bufBytes(ws.d), bufBytes(ws.b), bufBytes(ws.order), bufBytes(ws.parent), bufBytes(ws.left),
	}}
	for _, r := range ws.ranks {
		f.ranks, f.rankN = f.ranks+1, max(f.rankN, cap(r))
	}
	return f
}

func (f footprint) bytes() int64 {
	b := int64(f.ranks*f.rankN) * 8
	for _, r := range f.roles {
		b += r
	}
	return b
}

// largestUnitFootprint solves each of eng's units alone on a fresh
// stage and returns the role-by-role maximum of their workspaces.
func largestUnitFootprint(t *testing.T, eng *Engine, pool *sched.Pool) footprint {
	t.Helper()
	var largest footprint
	for ui, u := range eng.Plan().Units {
		plan := *eng.Plan()
		plan.Units = []SolveUnit{u}
		st := NewSolveStage(pool)
		if _, err := st.Run(context.Background(), &plan); err != nil {
			t.Fatalf("unit %d alone: %v", ui, err)
		}
		for _, ws := range st.arena.idle {
			f := footprintOf(ws)
			for r := range f.roles {
				largest.roles[r] = max(largest.roles[r], f.roles[r])
			}
			largest.ranks, largest.rankN = max(largest.ranks, f.ranks), max(largest.rankN, f.rankN)
		}
	}
	if largest.bytes() == 0 {
		t.Fatalf("no unit pinned any memory")
	}
	return largest
}

func bufBytes[T any](s []T) int64 {
	var zero T
	return int64(cap(s)) * int64(unsafe.Sizeof(zero))
}
