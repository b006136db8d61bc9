package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"pmpr/internal/events"
	"pmpr/internal/sched"
	"pmpr/internal/tcsr"
)

// planFixture builds the 40-window representation of the report
// fixture's log, partitioned into cfg.NumMultiWindows graphs.
func planFixture(t *testing.T, cfg Config) *tcsr.Temporal {
	t.Helper()
	l := randomLog(t, 31, 25, 600, 3000)
	spec, err := events.SpanCount(l, 400, 60, 40)
	if err != nil {
		t.Fatalf("SpanCount: %v", err)
	}
	build, err := (BuildStage{}).Run(BuildInput{Log: l, Spec: spec, Cfg: cfg})
	if err != nil {
		t.Fatalf("BuildStage: %v", err)
	}
	return build.Temporal
}

// TestPlanUnitsShape checks the plan's unit layout over pool sizes and
// modes: the units tile the windows exactly once and in order, no unit
// crosses a multi-window graph, and a multi-window graph is cut into
// several warm-start chains only in pooled window-level and nested
// plans.
func TestPlanUnitsShape(t *testing.T) {
	cfg := DefaultConfig()
	tg := planFixture(t, cfg)
	for _, workers := range []int{0, 1, 2} {
		for _, mode := range []ParallelMode{AppLevel, WindowLevel, Nested} {
			label := fmt.Sprintf("workers=%d %v", workers, mode)
			cfg.Mode = mode
			plan, err := (PlanStage{}).Run(PlanInput{Temporal: tg, Cfg: cfg, Workers: workers})
			if err != nil {
				t.Fatalf("%s: PlanStage: %v", label, err)
			}
			chained := workers > 1 && mode != AppLevel
			split := false
			next := 0
			for i, u := range plan.Units {
				n := u.Hi - u.Lo
				if first := u.MW.WinLo + u.Lo; first != next {
					t.Fatalf("%s: unit %d starts at window %d, want %d", label, i, first, next)
				}
				if u.Lo < 0 || u.Hi > u.MW.NumWindows() || n < 1 {
					t.Fatalf("%s: unit %d covers offsets [%d, %d) of a %d-window graph",
						label, i, u.Lo, u.Hi, u.MW.NumWindows())
				}
				if n < u.MW.NumWindows() {
					if !chained {
						t.Fatalf("%s: unit %d covers %d of its graph's %d windows", label, i, n, u.MW.NumWindows())
					}
					split = true
				}
				next = u.MW.WinLo + u.Hi
			}
			if next != plan.Windows {
				t.Fatalf("%s: units end at window %d, want %d", label, next, plan.Windows)
			}
			if chained && !split {
				t.Fatalf("%s: no multi-window graph was cut into chains", label)
			}
		}
	}
}

// TestPlanForksOnlyWhenUnitsCannotFillPool pins the plan's fork
// decision: app-level plans always fork the vertex loops on a pool,
// window-level plans never do, nested plans fork iff the units cannot
// give every worker one, and no serial plan forks. The fixture's 40
// windows cut into enough chains for 2 workers but not for 64.
func TestPlanForksOnlyWhenUnitsCannotFillPool(t *testing.T) {
	cfg := DefaultConfig()
	tg := planFixture(t, cfg)
	nestedForks := map[bool]int{}
	for _, workers := range []int{0, 2, 64} {
		for _, mode := range []ParallelMode{AppLevel, WindowLevel, Nested} {
			label := fmt.Sprintf("workers=%d %v", workers, mode)
			cfg.Mode = mode
			plan, err := (PlanStage{}).Run(PlanInput{Temporal: tg, Cfg: cfg, Workers: workers})
			if err != nil {
				t.Fatalf("%s: PlanStage: %v", label, err)
			}
			var want bool
			switch {
			case workers == 0:
				want = false
			case mode == AppLevel:
				want = true
			case mode == Nested:
				want = len(plan.Units) < workers
				nestedForks[want]++
			}
			if plan.ForkVertexLoops != want {
				t.Errorf("%s: %d units, ForkVertexLoops = %v, want %v",
					label, len(plan.Units), plan.ForkVertexLoops, want)
			}
		}
	}
	if nestedForks[true] == 0 || nestedForks[false] == 0 {
		t.Fatalf("nested plans forked %d times and did not fork %d times; the fixture must show both",
			nestedForks[true], nestedForks[false])
	}
}

// TestPooledWindowLevelEqualsSerialSolve solves one pooled window-level
// plan, and one nested plan whose units fill the pool, serially and on
// a 2-worker pool: neither plan forks its vertex loops, so the pool only
// decides which worker runs which unit, and every unit runs its windows
// serially in plan order, so every rank must match bit for bit on every
// run.
func TestPooledWindowLevelEqualsSerialSolve(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	for _, mode := range []ParallelMode{WindowLevel, Nested} {
		cfg := DefaultConfig()
		cfg.Mode = mode
		label := mode.String()
		tg := planFixture(t, cfg)
		plan, err := (PlanStage{}).Run(PlanInput{Temporal: tg, Cfg: cfg, Workers: pool.NumWorkers()})
		if err != nil {
			t.Fatalf("PlanStage: %v", err)
		}
		if plan.ForkVertexLoops {
			t.Fatalf("%s: plan with %d units forks on a %d-worker pool", label, len(plan.Units), pool.NumWorkers())
		}
		want, err := NewSolveStage(nil).Run(context.Background(), plan)
		if err != nil {
			t.Fatalf("%s: serial solve: %v", label, err)
		}
		for run := 0; run < 5; run++ {
			got, err := NewSolveStage(pool).Run(context.Background(), plan)
			if err != nil {
				t.Fatalf("%s run %d: pooled solve: %v", label, run, err)
			}
			for w := range want.Results {
				a, b := &want.Results[w], &got.Results[w]
				if !a.HasRanks() || len(a.Vertices) != len(b.Vertices) {
					t.Fatalf("%s run %d window %d: %d entries, serial %d", label, run, w, len(b.Vertices), len(a.Vertices))
				}
				for i, v := range a.Vertices {
					if b.Vertices[i] != v || math.Float64bits(a.Ranks[i]) != math.Float64bits(b.Ranks[i]) {
						t.Fatalf("%s run %d window %d entry %d: pooled (%d, %v) != serial (%d, %v)",
							label, run, w, i, b.Vertices[i], b.Ranks[i], v, a.Ranks[i])
					}
				}
			}
		}
	}
}
