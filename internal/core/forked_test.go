package core

import (
	"context"
	"fmt"
	"testing"

	"pmpr/internal/events"
	"pmpr/internal/fault"
	"pmpr/internal/sched"
)

// forkedFixture returns a log and count windows over it in which every
// window holds at least three chunks of active vertices, so a forked
// plan's sweeps split into chunks and fork them on the pool. An
// undirected fixture is symmetrized, as Config.Directed requires.
func forkedFixture(t *testing.T, directed bool, count int) (*events.Log, events.WindowSpec) {
	t.Helper()
	l := randomLog(t, 83, 1300, 8000, 8000)
	if !directed {
		l = l.Symmetrize()
	}
	spec := events.WindowSpec{T0: 0, Delta: 2000, Slide: 150, Count: count}
	return l, spec
}

// checkWindowsSpanChunks fails unless every window of s has more than
// two chunks of active vertices.
func checkWindowsSpanChunks(t testing.TB, s *Series) {
	t.Helper()
	for w := 0; w < s.Len(); w++ {
		if a := s.Window(w).ActiveVertices; a <= 2*chunkLen {
			t.Fatalf("window %d has %d active vertices, at most two chunks of %d", w, a, chunkLen)
		}
	}
}

// TestForkedSolveIsBitReproducible pins the forked Jacobi sweep to its
// chunks: a forked plan splits each window's active list into fixed
// chunks and adds their sums in chunk order, so its ranks, sweep
// counts and residuals must not depend on the pool size, the
// partitioner, the grain, a repeat run, or the degrade rung's serial
// loop. Every window spans several chunks; the static partitioner at
// grain 1 runs each chunk as its own leaf, which shows the sweeps fork.
func TestForkedSolveIsBitReproducible(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	for _, directed := range []bool{true, false} {
		l, spec := forkedFixture(t, directed, 6)
		var want *Series
		run := func(label string, workers int, part sched.Partitioner, grain int) *Series {
			t.Helper()
			pool := sched.NewPool(workers)
			defer pool.Close()
			pool.EnableMetrics(true)
			cfg := DefaultConfig()
			cfg.Mode, cfg.NumMultiWindows, cfg.Directed = AppLevel, 2, directed
			cfg.Partitioner, cfg.Grain = part, grain
			eng, err := NewEngine(l, spec, cfg, pool)
			if err != nil {
				t.Fatalf("%s: NewEngine: %v", label, err)
			}
			if eng.Plan().Update() != UpdateJacobi {
				t.Fatalf("%s: plan updates %s, want %s", label, eng.Plan().Update(), UpdateJacobi)
			}
			s, err := eng.Run(context.Background())
			if err != nil {
				t.Fatalf("%s: Run: %v", label, err)
			}
			if want == nil {
				checkWindowsSpanChunks(t, s)
				want = s
			} else {
				sameWindows(t, label, l.NumVertices(), s, want)
			}
			if part == sched.Static && grain == 1 {
				if tasks, sweeps := s.Report.Sched.TotalTasks, int64(s.TotalIterations()); tasks < 3*sweeps {
					t.Fatalf("%s: pool ran %d leaf tasks for %d sweeps of at least three chunks", label, tasks, sweeps)
				}
			}
			return s
		}
		for _, workers := range []int{1, 2, 3} {
			for _, part := range []sched.Partitioner{sched.Auto, sched.Static} {
				for _, grain := range []int{1, 2} {
					for rep := 0; rep < 2; rep++ {
						run(fmt.Sprintf("directed=%v workers=%d %v grain=%d run %d", directed, workers, part, grain, rep),
							workers, part, grain)
					}
				}
			}
		}
		disarm := fault.Arm(fault.Rule{Point: PointSolveWindow, Mode: fault.ModeError, Count: 0})
		s := run(fmt.Sprintf("directed=%v degraded", directed), 2, sched.Auto, 1)
		disarm()
		if s.Report.Fault.Degraded != spec.Count {
			t.Fatalf("directed=%v: %d windows degraded, want all %d", directed, s.Report.Fault.Degraded, spec.Count)
		}
	}
}
