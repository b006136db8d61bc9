package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"pmpr/internal/checkpoint"
	"pmpr/internal/events"
	"pmpr/internal/fault"
	"pmpr/internal/obs"
	"pmpr/internal/sched"
)

// oracleSeries solves the log serially, fault-free, and returns the
// dense per-window rank vectors.
func oracleSeries(t *testing.T, l *events.Log, spec events.WindowSpec, cfg Config) [][]float64 {
	t.Helper()
	fault.Reset()
	eng, err := NewEngine(l, spec, cfg, nil)
	if err != nil {
		t.Fatalf("oracle NewEngine: %v", err)
	}
	s, err := eng.Run(context.Background())
	if err != nil {
		t.Fatalf("oracle Run: %v", err)
	}
	return denseSeries(t, s, "oracle")
}

func maxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}

// TestInjectedFaultsAreRetriedTransparently arms a transient fault
// (error and panic modes) at each solve injection point and verifies
// the run completes with every window's ranks within 1e-12 of the
// fault-free oracle — a retried attempt reuses identical inputs, so a
// transient fault must leave no numerical trace. Subtests are named
// after the engine's one kernel, SpMV, and the point; the second of
// each pair (suffix #01) runs nested instead of app-level.
func TestInjectedFaultsAreRetriedTransparently(t *testing.T) {
	l := randomLog(t, 91, 30, 300, 900)
	spec := events.WindowSpec{T0: 0, Delta: 180, Slide: 95, Count: 8}
	pool := sched.NewPool(4)
	defer pool.Close()

	want := oracleSeries(t, l, spec, equivCfg(AppLevel, true))
	for _, mode := range []fault.Mode{fault.ModeError, fault.ModePanic} {
		for _, par := range []ParallelMode{AppLevel, Nested} {
			label := fmt.Sprintf("spmv/%v/%v", PointSolveWindow, mode)
			t.Run(label, func(t *testing.T) {
				defer fault.Reset()
				fault.Reset()
				cfg := equivCfg(par, true)
				cfg.Journal = obs.NewJournal(0)
				eng, err := NewEngine(l, spec, cfg, pool)
				if err != nil {
					t.Fatalf("NewEngine: %v", err)
				}
				// One fault on the third attempt-eligible hit: exercises a
				// mid-run window, not just the first.
				cancel := fault.Arm(fault.Rule{Point: PointSolveWindow, Mode: mode, After: 2, Count: 1})
				defer cancel()
				s, err := eng.Run(context.Background())
				if err != nil {
					t.Fatalf("Run with injected %v: %v", mode, err)
				}
				if fault.Injected() == 0 {
					t.Fatal("fault was never injected; test exercised nothing")
				}
				if !s.AllOK() {
					t.Fatalf("quarantined windows %v after a transient fault", s.Quarantined())
				}
				retried := 0
				for w := 0; w < s.Len(); w++ {
					if st := s.Window(w).Status; st == WindowRetried || st == WindowDegraded {
						retried++
					}
				}
				if retried == 0 {
					t.Fatal("no window reports a retried/degraded status")
				}
				if s.Report.Fault.Retried+s.Report.Fault.Degraded == 0 {
					t.Fatalf("report fault rollup empty: %+v", s.Report.Fault)
				}
				got := denseSeries(t, s, label)
				for w := range want {
					if d := maxAbsDiff(got[w], want[w]); d > 1e-12 {
						t.Fatalf("window %d diverges from oracle by %v", w, d)
					}
				}
				if cfg.Journal.FaultCounters().PanicsRecovered.Value() == 0 && mode == fault.ModePanic {
					t.Fatal("panic mode injected but no panic recovered")
				}
			})
		}
	}
}

// TestPersistentFaultDegradesToSerialKernel arms a persistent fault on
// the window point; every window then falls back to the serial degrade
// rung, and the results must still match the oracle (same math,
// simpler path).
func TestPersistentFaultDegradesToSerialKernel(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	l := randomLog(t, 92, 25, 250, 700)
	spec := events.WindowSpec{T0: 0, Delta: 160, Slide: 90, Count: 6}
	want := oracleSeries(t, l, spec, equivCfg(AppLevel, true))

	cfg := equivCfg(AppLevel, true)
	cfg.Journal = obs.NewJournal(0)
	eng, err := NewEngine(l, spec, cfg, nil)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	cancel := fault.Arm(fault.Rule{Point: PointSolveWindow, Mode: fault.ModePanic, Count: 0})
	defer cancel()
	s, err := eng.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !s.AllOK() {
		t.Fatalf("quarantined windows %v; degrade should have rescued them", s.Quarantined())
	}
	for w := 0; w < s.Len(); w++ {
		// Every window attempt and retry failed; the degrade attempt won.
		if r := s.Window(w); r.Status != WindowDegraded || r.Attempts != maxRetries+2 {
			t.Fatalf("window %d status %v after %d attempts, want degraded after %d", w, r.Status, r.Attempts, maxRetries+2)
		}
	}
	if got := cfg.Journal.FaultCounters().Degraded.Value(); got != int64(s.Len()) {
		t.Fatalf("Degraded counter %d, want %d", got, s.Len())
	}
	got := denseSeries(t, s, "degraded")
	for w := range want {
		if d := maxAbsDiff(got[w], want[w]); d > 1e-12 {
			t.Fatalf("window %d diverges from oracle by %v", w, d)
		}
	}
}

// TestPersistentFaultQuarantinesWindow makes both the window solve and
// the degrade fallback fail persistently for exactly one window: the
// run must complete with that window quarantined (structured
// *WindowError, no ranks) and every other window matching the oracle.
func TestPersistentFaultQuarantinesWindow(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	l := randomLog(t, 93, 25, 250, 700)
	spec := events.WindowSpec{T0: 0, Delta: 160, Slide: 90, Count: 6}
	want := oracleSeries(t, l, spec, equivCfg(AppLevel, true))

	eng, err := NewEngine(l, spec, equivCfg(AppLevel, true), nil)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	// The serial run hits the window point once per attempt in window
	// order, so After=3 lands on window 2's first attempt; Count also
	// fails each of its retries, and the always-armed degrade rule
	// finishes it off.
	c1 := fault.Arm(fault.Rule{Point: PointSolveWindow, Mode: fault.ModeError, After: 3, Count: maxRetries + 1})
	defer c1()
	c2 := fault.Arm(fault.Rule{Point: PointSolveDegrade, Mode: fault.ModePanic, Count: 0})
	defer c2()
	s, err := eng.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	q := s.Quarantined()
	if len(q) != 1 || q[0] != 2 {
		t.Fatalf("quarantined = %v, want [2]", q)
	}
	res := s.Window(2)
	if res.Status != WindowFailed || res.Err == nil || res.HasRanks() {
		t.Fatalf("window 2 = status %v err %v hasRanks %v", res.Status, res.Err, res.HasRanks())
	}
	var we *WindowError
	if !errors.As(res.Err, &we) || we.Window != 2 || !we.Panicked || we.Attempts != maxRetries+2 {
		t.Fatalf("window 2 error %v is not a panicked *WindowError for window 2 after %d attempts", res.Err, maxRetries+2)
	}
	if got := s.Report.Fault.Quarantined; len(got) != 1 || got[0] != 2 {
		t.Fatalf("report quarantined = %v, want [2]", got)
	}
	got := denseSeries4Quarantine(t, s)
	for w := range want {
		if w == 2 {
			continue
		}
		if d := maxAbsDiff(got[w], want[w]); d > 1e-12 {
			t.Fatalf("window %d diverges from oracle by %v", w, d)
		}
	}
}

// denseSeries4Quarantine densifies every window that has ranks,
// leaving nil for quarantined ones.
func denseSeries4Quarantine(t *testing.T, s *Series) [][]float64 {
	t.Helper()
	out := make([][]float64, s.Len())
	for w := 0; w < s.Len(); w++ {
		if r := s.Window(w); r.HasRanks() {
			out[w] = r.Dense(s.NumVertices)
		}
	}
	return out
}

// TestStagePanicsBecomeStageErrors verifies the build/plan/publish
// stages convert injected panics into *StageError instead of crashing.
func TestStagePanicsBecomeStageErrors(t *testing.T) {
	defer fault.Reset()
	l := randomLog(t, 95, 20, 200, 600)
	spec := events.WindowSpec{T0: 0, Delta: 160, Slide: 90, Count: 5}
	for _, point := range []string{PointBuild, PointPlan} {
		fault.Reset()
		cancel := fault.Arm(fault.Rule{Point: point, Mode: fault.ModePanic, Count: 1})
		_, err := NewEngine(l, spec, equivCfg(AppLevel, true), nil)
		cancel()
		var se *StageError
		if !errors.As(err, &se) {
			t.Fatalf("%s: NewEngine error %v, want *StageError", point, err)
		}
		var rp *RecoveredPanic
		if !errors.As(err, &rp) {
			t.Fatalf("%s: StageError does not wrap the recovered panic: %v", point, err)
		}
	}
	fault.Reset()
	eng, err := NewEngine(l, spec, equivCfg(AppLevel, true), nil)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	cancel := fault.Arm(fault.Rule{Point: PointPublish, Mode: fault.ModePanic, Count: 1})
	defer cancel()
	_, err = eng.Run(context.Background())
	var se *StageError
	if !errors.As(err, &se) || se.Stage != "publish" {
		t.Fatalf("Run error %v, want publish *StageError", err)
	}
}

// TestCheckpointResumeBitIdentical runs with checkpointing, cancels
// mid-run, then resumes on a fresh engine and requires (a) the resumed
// run to restore rather than re-solve the completed windows and (b)
// the final ranks to be bit-identical to an uninterrupted run. The
// subtest is named after the engine's one kernel, SpMV.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	fault.Reset()
	l := randomLog(t, 96, 25, 250, 700)
	spec := events.WindowSpec{T0: 0, Delta: 160, Slide: 90, Count: 6}
	t.Run("spmv", func(t *testing.T) {
		cfg := equivCfg(AppLevel, true)
		dir := filepath.Join(t.TempDir(), "ck")

		// Uninterrupted reference.
		ref, err := NewEngine(l, spec, cfg, nil)
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		refSeries, err := ref.Run(context.Background())
		if err != nil {
			t.Fatalf("reference Run: %v", err)
		}

		// Interrupted run: cancel once half the windows completed.
		store, err := checkpoint.Open(dir)
		if err != nil {
			t.Fatalf("checkpoint.Open: %v", err)
		}
		cfg1 := cfg
		cfg1.Journal = obs.NewJournal(0)
		ckpts := &cfg1.Journal.FaultCounters().CheckpointWindows
		eng1, err := NewEngine(l, spec, cfg1, nil)
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		if _, err := eng1.SetCheckpoint(store, false); err != nil {
			t.Fatalf("SetCheckpoint: %v", err)
		}
		// Slow every attempt down so the watcher's cancel reliably
		// lands mid-run rather than after the final window.
		slow := fault.Arm(fault.Rule{Point: PointSolveWindow, Mode: fault.ModeDelay, Delay: 20 * time.Millisecond, Count: 0})
		ctx, stop := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			for ckpts.Value() < 3 {
				runtime.Gosched()
			}
			stop()
		}()
		_, err = eng1.Run(ctx)
		<-done
		slow()
		var ce *CanceledError
		if !errors.As(err, &ce) {
			// The run may have finished before the cancel landed; then
			// there is nothing to resume and the test is vacuous.
			t.Fatalf("interrupted Run returned %v, want *CanceledError", err)
		}
		if ce.Checkpoint != dir {
			t.Fatalf("CanceledError.Checkpoint = %q, want %q", ce.Checkpoint, dir)
		}
		if ce.Completed == 0 || ce.Completed >= spec.Count {
			t.Fatalf("cancel landed at %d/%d windows; test needs a partial run (ckpt=%d injected=%d)",
				ce.Completed, spec.Count, ckpts.Value(), fault.Injected())
		}

		// Resume on a fresh engine.
		store2, err := checkpoint.Open(dir)
		if err != nil {
			t.Fatalf("checkpoint.Open: %v", err)
		}
		eng2, err := NewEngine(l, spec, cfg, nil)
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		resumed, err := eng2.SetCheckpoint(store2, true)
		if err != nil {
			t.Fatalf("SetCheckpoint(resume): %v", err)
		}
		if resumed == 0 {
			t.Fatal("resume found no checkpointed windows")
		}
		s, err := eng2.Run(context.Background())
		if err != nil {
			t.Fatalf("resumed Run: %v", err)
		}
		gotResumed := 0
		for w := 0; w < s.Len(); w++ {
			if s.Window(w).Status == WindowResumed {
				gotResumed++
			}
		}
		if gotResumed != resumed {
			t.Fatalf("series reports %d resumed windows, SetCheckpoint promised %d", gotResumed, resumed)
		}
		if s.Report.Fault.Resumed != resumed {
			t.Fatalf("report resumed = %d, want %d", s.Report.Fault.Resumed, resumed)
		}
		want := denseSeries(t, refSeries, "reference")
		got := denseSeries(t, s, "resumed")
		for w := range want {
			for v := range want[w] {
				if got[w][v] != want[w][v] {
					t.Fatalf("window %d vertex %d: resumed %v != reference %v (must be bit-identical)",
						w, v, got[w][v], want[w][v])
				}
			}
		}
	})
}

// TestCheckpointManifestMismatch verifies a checkpoint taken under a
// different configuration refuses to resume.
func TestCheckpointManifestMismatch(t *testing.T) {
	fault.Reset()
	l := randomLog(t, 97, 20, 200, 600)
	spec := events.WindowSpec{T0: 0, Delta: 160, Slide: 90, Count: 5}
	dir := t.TempDir()
	store, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	eng1, err := NewEngine(l, spec, equivCfg(AppLevel, true), nil)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if _, err := eng1.SetCheckpoint(store, false); err != nil {
		t.Fatalf("SetCheckpoint: %v", err)
	}
	if _, err := eng1.Run(context.Background()); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Same log, no partial initialization => manifest mismatch.
	eng2, err := NewEngine(l, spec, equivCfg(AppLevel, false), nil)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	store2, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := eng2.SetCheckpoint(store2, true); err == nil {
		t.Fatal("SetCheckpoint(resume) accepted a mismatched manifest")
	}
}

// TestCheckpointRejectsDiscardRanks verifies the retained-ranks
// requirement is enforced.
func TestCheckpointRejectsDiscardRanks(t *testing.T) {
	fault.Reset()
	l := randomLog(t, 98, 20, 200, 600)
	spec := events.WindowSpec{T0: 0, Delta: 160, Slide: 90, Count: 5}
	cfg := equivCfg(AppLevel, true)
	cfg.DiscardRanks = true
	eng, err := NewEngine(l, spec, cfg, nil)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := eng.SetCheckpoint(store, false); err == nil {
		t.Fatal("SetCheckpoint accepted Config.DiscardRanks")
	}
}

// TestChaosAllPointsAllModes is the chaos matrix CI runs under -race:
// every registered injection point, in both error and panic mode, with
// a transient (count-limited) fault, on a pooled nested run. The run
// must either complete (solve-point faults are absorbed; windows may
// quarantine) or fail with a structured error (stage/build points) —
// never crash the process.
func TestChaosAllPointsAllModes(t *testing.T) {
	l := randomLog(t, 99, 25, 250, 700)
	spec := events.WindowSpec{T0: 0, Delta: 160, Slide: 90, Count: 6}
	pool := sched.NewPool(4)
	defer pool.Close()
	defer fault.Reset()

	points := []string{
		PointBuild, PointPlan, PointSolveWindow, PointSolveDegrade,
		PointPublish,
	}
	for _, point := range points {
		for _, mode := range []fault.Mode{fault.ModeError, fault.ModePanic} {
			{
				label := fmt.Sprintf("%s/%v/spmv", point, mode)
				t.Run(label, func(t *testing.T) {
					fault.Reset()
					cancel := fault.Arm(fault.Rule{Point: point, Mode: mode, Count: 2})
					defer cancel()
					defer fault.Reset()
					eng, err := NewEngine(l, spec, equivCfg(Nested, true), pool)
					if err != nil {
						if !isStructuredFault(err) {
							t.Fatalf("NewEngine: unstructured error %v", err)
						}
						return
					}
					s, err := eng.Run(context.Background())
					if err != nil {
						if !isStructuredFault(err) {
							t.Fatalf("Run: unstructured error %v", err)
						}
						return
					}
					if s == nil || s.Len() != spec.Count {
						t.Fatalf("series incomplete: %v", s)
					}
				})
			}
		}
	}
}

// isStructuredFault reports whether err is one of the typed failures
// the fault machinery is allowed to surface: a *StageError (stage
// panic converted) or a bare *fault.Error (an error-mode injection at a
// non-recovering seam). A window fault never fails the run.
func isStructuredFault(err error) bool {
	var se *StageError
	var fe *fault.Error
	return errors.As(err, &se) || errors.As(err, &fe)
}
