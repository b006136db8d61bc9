package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"pmpr/internal/checkpoint"
	"pmpr/internal/events"
	"pmpr/internal/fault"
	"pmpr/internal/obs"
	"pmpr/internal/sched"
)

// journalCfg attaches a fresh journal to an equivalence config.
func journalCfg(mode ParallelMode) (Config, *obs.Journal) {
	cfg := equivCfg(mode, true)
	j := obs.NewJournal(4096)
	cfg.Journal = j
	return cfg, j
}

// eventsByType indexes a journal drain per event type, preserving order.
func eventsByType(evs []obs.Event) map[obs.EventType][]obs.Event {
	out := map[obs.EventType][]obs.Event{}
	for _, e := range evs {
		out[e.Type] = append(out[e.Type], e)
	}
	return out
}

// TestRunEmitsOrderedJournal runs a full engine with a journal attached
// and checks the event stream's shape: contiguous sequence numbers, the
// documented lifecycle order (stages, run_start before windows, run_end
// last), and one window_start/window_done pair per window. The subtest
// is named after the engine's one kernel, SpMV.
func TestRunEmitsOrderedJournal(t *testing.T) {
	fault.Reset()
	l := randomLog(t, 101, 25, 250, 700)
	spec := events.WindowSpec{T0: 0, Delta: 160, Slide: 90, Count: 6}
	t.Run("spmv", func(t *testing.T) {
		cfg, j := journalCfg(AppLevel)
		eng, err := NewEngine(l, spec, cfg, nil)
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		if _, err := eng.Run(context.Background()); err != nil {
			t.Fatalf("Run: %v", err)
		}
		evs, complete := j.Since(0)
		if !complete {
			t.Fatal("journal evicted events; ring sized too small for the run")
		}
		for i, e := range evs {
			if e.Seq != uint64(i+1) {
				t.Fatalf("event %d has seq %d; want contiguous from 1", i, e.Seq)
			}
			if e.TimeUnixNano == 0 {
				t.Fatalf("event %d has no timestamp", i)
			}
		}
		byType := eventsByType(evs)

		// NewEngine ran build and plan; Run ran solve and publish.
		stages := map[string]bool{}
		for _, e := range byType[obs.EvStageEnd] {
			if e.Err != "" {
				t.Fatalf("stage %s ended with error %q", e.Stage, e.Err)
			}
			stages[e.Stage] = true
		}
		for _, want := range []string{"build", "plan", "solve", "publish"} {
			if !stages[want] {
				t.Fatalf("no stage_end for %q (have %v)", want, stages)
			}
		}
		if len(byType[obs.EvStageStart]) != len(byType[obs.EvStageEnd]) {
			t.Fatalf("%d stage_start vs %d stage_end events",
				len(byType[obs.EvStageStart]), len(byType[obs.EvStageEnd]))
		}

		windows := spec.Count
		if got := len(byType[obs.EvWindowStart]); got != windows {
			t.Fatalf("window_start count = %d, want %d", got, windows)
		}
		if got := len(byType[obs.EvWindowDone]); got != windows {
			t.Fatalf("window_done count = %d, want %d", got, windows)
		}
		seen := map[int]bool{}
		for _, e := range byType[obs.EvWindowDone] {
			if seen[e.Window] {
				t.Fatalf("window %d decided twice", e.Window)
			}
			seen[e.Window] = true
			if e.Status != WindowOK.String() {
				t.Fatalf("window %d status %q, want %q", e.Window, e.Status, WindowOK)
			}
			// Empty windows legitimately decide in 0 iterations.
			if e.Iterations < 0 || e.Seconds < 0 {
				t.Fatalf("window %d: iterations=%d seconds=%g", e.Window, e.Iterations, e.Seconds)
			}
		}

		starts := byType[obs.EvRunStart]
		if len(starts) != 1 {
			t.Fatalf("run_start count = %d", len(starts))
		}
		rs := starts[0]
		if rs.Windows != windows || rs.Mode != AppLevel.String() || rs.Update != UpdateGaussSeidel {
			t.Fatalf("run_start = %+v", rs)
		}
		ends := byType[obs.EvRunEnd]
		if len(ends) != 1 {
			t.Fatalf("run_end count = %d", len(ends))
		}
		re := ends[0]
		if re.Status != "completed" || re.Done != windows || re.Windows != windows {
			t.Fatalf("run_end = %+v", re)
		}
		if evs[len(evs)-1].Type != obs.EvRunEnd {
			t.Fatalf("last event is %s, want run_end", evs[len(evs)-1].Type)
		}
		// Every window event happens between run_start and run_end.
		for _, e := range append(byType[obs.EvWindowStart], byType[obs.EvWindowDone]...) {
			if e.Seq < rs.Seq || e.Seq > re.Seq {
				t.Fatalf("window event seq %d outside run bounds [%d,%d]", e.Seq, rs.Seq, re.Seq)
			}
		}
	})
}

// TestJournalRecordsRetries verifies a transient injected fault leaves
// a retry event carrying the failing window and the attempt number.
func TestJournalRecordsRetries(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	l := randomLog(t, 102, 20, 200, 600)
	spec := events.WindowSpec{T0: 0, Delta: 160, Slide: 90, Count: 5}
	cfg, j := journalCfg(AppLevel)
	eng, err := NewEngine(l, spec, cfg, nil)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	cancel := fault.Arm(fault.Rule{Point: PointSolveWindow, Mode: fault.ModeError, After: 2, Count: 1})
	defer cancel()
	s, err := eng.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !s.AllOK() {
		t.Fatalf("transient fault quarantined windows %v", s.Quarantined())
	}
	evs, _ := j.Since(0)
	byType := eventsByType(evs)
	retries := byType[obs.EvRetry]
	if len(retries) == 0 {
		t.Fatal("no retry event recorded")
	}
	if r := retries[0]; r.Attempt < 1 || r.Err == "" || r.Window < 0 {
		t.Fatalf("retry event = %+v", r)
	}
	// The retried window still decides exactly once.
	if got := len(byType[obs.EvWindowDone]); got != spec.Count {
		t.Fatalf("window_done count = %d, want %d", got, spec.Count)
	}
}

// TestJournalRecordsDegrade verifies a persistent window-solve fault
// with a healthy serial fallback leaves one degrade event per degraded
// window.
func TestJournalRecordsDegrade(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	l := randomLog(t, 106, 20, 200, 600)
	spec := events.WindowSpec{T0: 0, Delta: 160, Slide: 90, Count: 5}
	cfg, j := journalCfg(AppLevel)
	eng, err := NewEngine(l, spec, cfg, nil)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	cancel := fault.Arm(fault.Rule{Point: PointSolveWindow, Mode: fault.ModeError, Count: 0})
	defer cancel()
	s, err := eng.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	degraded := 0
	for w := 0; w < s.Len(); w++ {
		if s.Window(w).Status == WindowDegraded {
			degraded++
		}
	}
	if degraded != spec.Count {
		t.Fatalf("%d of %d windows degraded under a persistent fault", degraded, spec.Count)
	}
	evs, _ := j.Since(0)
	byType := eventsByType(evs)
	if got := len(byType[obs.EvDegrade]); got != degraded {
		t.Fatalf("%d degrade events for %d degraded windows", got, degraded)
	}
	if got := len(byType[obs.EvRetry]); got != maxRetries*degraded {
		t.Fatalf("%d retry events before degrading, want %d per window", got, maxRetries)
	}
}

// TestJournalRecordsQuarantine verifies a persistent fault (primary and
// degraded paths both failing) produces quarantine events — degrade
// events are absent because the fallback never succeeds — and the
// run_end still reports completion.
func TestJournalRecordsQuarantine(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	l := randomLog(t, 103, 20, 200, 600)
	spec := events.WindowSpec{T0: 0, Delta: 160, Slide: 90, Count: 5}
	cfg, j := journalCfg(AppLevel)
	eng, err := NewEngine(l, spec, cfg, nil)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	c1 := fault.Arm(fault.Rule{Point: PointSolveWindow, Mode: fault.ModeError, Count: 0})
	defer c1()
	c2 := fault.Arm(fault.Rule{Point: PointSolveDegrade, Mode: fault.ModeError, Count: 0})
	defer c2()
	s, err := eng.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(s.Quarantined()) != spec.Count {
		t.Fatalf("%d of %d windows quarantined under a persistent fault", len(s.Quarantined()), spec.Count)
	}
	evs, _ := j.Since(0)
	byType := eventsByType(evs)
	q := byType[obs.EvQuarantine]
	if len(q) != len(s.Quarantined()) {
		t.Fatalf("%d quarantine events for %d quarantined windows", len(q), len(s.Quarantined()))
	}
	// The first attempt, every retry, and the degrade attempt failed.
	if q[0].Err == "" || q[0].Attempt != maxRetries+2 {
		t.Fatalf("quarantine event = %+v, want attempt %d", q[0], maxRetries+2)
	}
	if got := len(byType[obs.EvRetry]); got != maxRetries*spec.Count {
		t.Fatalf("%d retry events, want %d per window", got, maxRetries)
	}
	if ends := byType[obs.EvRunEnd]; len(ends) != 1 || ends[0].Status != "completed" {
		t.Fatalf("run_end = %+v", ends)
	}
}

// TestJournalRecordsCancel cancels mid-run — the journal's own event
// stream is the trigger: the context is canceled when the first
// window_done arrives, while a delay fault keeps the remaining windows
// pending — and verifies a cancel event plus a run_end with status
// "canceled" land in the journal.
func TestJournalRecordsCancel(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	l := randomLog(t, 104, 20, 200, 600)
	spec := events.WindowSpec{T0: 0, Delta: 160, Slide: 90, Count: 5}
	cfg, j := journalCfg(AppLevel)
	eng, err := NewEngine(l, spec, cfg, nil)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	slow := fault.Arm(fault.Rule{Point: PointSolveWindow, Mode: fault.ModeDelay, Delay: 20 * time.Millisecond, Count: 0})
	defer slow()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sub := j.Subscribe(64)
	defer sub.Close()
	go func() {
		for e := range sub.C() {
			if e.Type == obs.EvWindowDone {
				cancel()
				return
			}
		}
	}()
	if _, err := eng.Run(ctx); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Run: %v, want ErrCanceled", err)
	}
	evs, _ := j.Since(0)
	byType := eventsByType(evs)
	if len(byType[obs.EvCancel]) == 0 {
		t.Fatal("no cancel event recorded")
	}
	ends := byType[obs.EvRunEnd]
	if len(ends) != 1 || ends[0].Status != "canceled" {
		t.Fatalf("run_end = %+v, want status canceled", ends)
	}
	if done := len(byType[obs.EvWindowDone]); done == 0 || done >= spec.Count {
		t.Fatalf("window_done count = %d, want partial progress (0 < n < %d)", done, spec.Count)
	}
}

// TestStatusMatchesRunReport pins the /status scopes to RunReport's: a
// window retried once has status retried, and both views count it. A
// second run restarts the per-run status counts while the /metrics
// fault counters stay cumulative.
func TestStatusMatchesRunReport(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	l := randomLog(t, 107, 25, 250, 700)
	spec := events.WindowSpec{T0: 0, Delta: 160, Slide: 90, Count: 6}
	cfg, j := journalCfg(AppLevel)
	cfg.NumMultiWindows = 1
	eng, err := NewEngine(l, spec, cfg, nil)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	cancel := fault.Arm(fault.Rule{Point: PointSolveWindow, Mode: fault.ModeError, Count: 1})
	s, err := eng.Run(context.Background())
	cancel()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := j.Status()
	if st.Retried != int64(s.Report.Fault.Retried) || st.Retried != 1 {
		t.Fatalf("/status retried = %d, RunReport retried = %d, want both 1 (the retried window)",
			st.Retried, s.Report.Fault.Retried)
	}
	if st.Phase != "done" || st.WindowsDone != spec.Count || st.WindowsTotal != spec.Count {
		t.Fatalf("/status after the run = %+v", st)
	}
	if _, err := eng.Run(context.Background()); err != nil {
		t.Fatalf("second Run: %v", err)
	}
	if st := j.Status(); st.Retried != 0 || st.WindowsDone != spec.Count {
		t.Fatalf("/status after a clean second run = %+v, want retried 0 and %d windows", st, spec.Count)
	}
	reg := obs.NewRegistry()
	j.RegisterOn(reg)
	var prom strings.Builder
	reg.WriteProm(&prom)
	for _, want := range []string{
		"pmpr_engine_fault_retries_total 1\n",
		fmt.Sprintf("pmpr_window_wall_seconds_count %d\n", 2*spec.Count),
	} {
		if !strings.Contains(prom.String(), want) {
			t.Fatalf("/metrics lacks cumulative %q:\n%s", want, prom.String())
		}
	}
}

// reportFromJSONL rebuilds the per-window part of a RunReport from a
// -journal-out file alone: one window_done line per window.
func reportFromJSONL(t *testing.T, jsonl []byte, windows int) RunReport {
	t.Helper()
	rep := RunReport{WindowWallSeconds: make([]float64, windows), WindowWorkers: make([]int, windows)}
	decided := make([]bool, windows)
	for i, line := range bytes.Split(bytes.TrimSpace(jsonl), []byte("\n")) {
		var e obs.Event
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("line %d: %v\n%s", i+1, err, line)
		}
		if e.Type != obs.EvWindowDone {
			continue
		}
		if decided[e.Window] {
			t.Fatalf("window %d decided twice", e.Window)
		}
		decided[e.Window] = true
		rep.WindowWallSeconds[e.Window] = e.Seconds
		rep.WindowWorkers[e.Window] = e.Worker
		rep.TotalIterations += e.Iterations
		rep.Residuals.Max = math.Max(rep.Residuals.Max, e.Residual)
		if !e.Converged {
			rep.Residuals.Unconverged++
		}
		switch e.Status {
		case WindowRetried.String():
			rep.Fault.Retried++
		case WindowDegraded.String():
			rep.Fault.Degraded++
		case WindowResumed.String():
			rep.Fault.Resumed++
		case WindowFailed.String():
			rep.Fault.Quarantined = append(rep.Fault.Quarantined, e.Window)
		}
	}
	for w, ok := range decided {
		if !ok {
			t.Fatalf("window %d has no window_done line", w)
		}
	}
	sort.Ints(rep.Fault.Quarantined)
	return rep
}

// TestJournalReproducesRunReport rebuilds a run's per-window report
// from its -journal-out JSONL and requires exact equality with the live
// RunReport on a run that resumes a checkpointed window and retries
// one injected failure. The subtest is named after the engine's one
// kernel, SpMV.
func TestJournalReproducesRunReport(t *testing.T) {
	defer fault.Reset()
	l := randomLog(t, 108, 25, 250, 700)
	spec := events.WindowSpec{T0: 0, Delta: 160, Slide: 90, Count: 6}
	pool := sched.NewPool(2)
	defer pool.Close()
	t.Run("spmv", func(t *testing.T) {
		fault.Reset()
		cfg := equivCfg(Nested, true)
		cfg.Opts.MaxIter = 20 // leave some windows unconverged
		dir := t.TempDir()

		// A full checkpointed run; then keep only the first window's
		// record for the next run to resume.
		first, err := NewEngine(l, spec, cfg, pool)
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		store, err := checkpoint.Open(dir)
		if err != nil {
			t.Fatalf("checkpoint.Open: %v", err)
		}
		if _, err := first.SetCheckpoint(store, false); err != nil {
			t.Fatalf("SetCheckpoint: %v", err)
		}
		if _, err := first.Run(context.Background()); err != nil {
			t.Fatalf("checkpointed Run: %v", err)
		}
		for w := 1; w < spec.Count; w++ {
			if err := os.Remove(filepath.Join(dir, fmt.Sprintf("window-%08d.pmck", w))); err != nil {
				t.Fatal(err)
			}
		}

		var jsonl bytes.Buffer
		cfg.Journal = obs.NewJournal(0)
		cfg.Journal.SetSink(&jsonl)
		eng, err := NewEngine(l, spec, cfg, pool)
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		if n, err := eng.SetCheckpoint(store, true); err != nil || n != 1 {
			t.Fatalf("SetCheckpoint(resume) = %d, %v; want 1 window", n, err)
		}
		cancel := fault.Arm(fault.Rule{Point: PointSolveWindow, Mode: fault.ModeError, Count: 1})
		s, err := eng.Run(context.Background())
		cancel()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if err := cfg.Journal.CloseSink(); err != nil {
			t.Fatalf("CloseSink: %v", err)
		}
		live := s.Report
		if live.Fault.Retried == 0 || live.Fault.Resumed == 0 || live.Residuals.Unconverged == 0 {
			t.Fatalf("run exercised too little: fault %+v, %d unconverged", live.Fault, live.Residuals.Unconverged)
		}

		got := reportFromJSONL(t, jsonl.Bytes(), spec.Count)
		for w := 0; w < spec.Count; w++ {
			if got.WindowWallSeconds[w] != live.WindowWallSeconds[w] || got.WindowWorkers[w] != live.WindowWorkers[w] {
				t.Fatalf("window %d: journal wall %v worker %d, report wall %v worker %d", w,
					got.WindowWallSeconds[w], got.WindowWorkers[w], live.WindowWallSeconds[w], live.WindowWorkers[w])
			}
		}
		if got.TotalIterations != live.TotalIterations || got.Residuals.Max != live.Residuals.Max ||
			got.Residuals.Unconverged != live.Residuals.Unconverged {
			t.Fatalf("journal totals (iterations %d, max residual %v, unconverged %d) != report (%d, %v, %d)",
				got.TotalIterations, got.Residuals.Max, got.Residuals.Unconverged,
				live.TotalIterations, live.Residuals.Max, live.Residuals.Unconverged)
		}
		if got.Fault.Retried != live.Fault.Retried || got.Fault.Degraded != live.Fault.Degraded ||
			got.Fault.Resumed != live.Fault.Resumed || fmt.Sprint(got.Fault.Quarantined) != fmt.Sprint(live.Fault.Quarantined) {
			t.Fatalf("journal fault rollup %+v != report %+v", got.Fault, live.Fault)
		}
	})
}
