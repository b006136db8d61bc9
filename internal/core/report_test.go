package core

import (
	"context"

	"bytes"
	"encoding/json"
	"testing"

	"pmpr/internal/events"
	"pmpr/internal/obs"
	"pmpr/internal/sched"
	"pmpr/internal/tcsr"
)

// reportFixture runs the engine on an overlap-heavy log where every
// window is nonempty, so warm-start behavior is deterministic.
func reportFixture(t *testing.T, cfg Config, pool *sched.Pool) (*Series, events.WindowSpec, *Engine) {
	t.Helper()
	l := randomLog(t, 31, 25, 600, 3000)
	spec, err := events.Span(l, 400, 120)
	if err != nil {
		t.Fatalf("Span: %v", err)
	}
	eng, err := NewEngine(l, spec, cfg, pool)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	s, err := eng.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return s, spec, eng
}

func TestRunReportSerialSpMVWarmStartIsPerfect(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Kernel = SpMV
	cfg.NumMultiWindows = 3
	cfg.Directed = true
	s, spec, _ := reportFixture(t, cfg, nil)

	rep := s.Report
	if rep == nil {
		t.Fatal("Run produced no report")
	}
	// A serial run chains partial initialization through every window of
	// each multi-window graph: the hit rate must be exactly 1.
	if want := spec.Count - cfg.NumMultiWindows; rep.WarmStart.Eligible != want {
		t.Fatalf("eligible = %d, want %d", rep.WarmStart.Eligible, want)
	}
	if rep.WarmStart.Hits != rep.WarmStart.Eligible || rep.WarmStart.HitRate != 1.0 {
		t.Fatalf("serial warm-start rate = %v (%d/%d), want 1.0",
			rep.WarmStart.HitRate, rep.WarmStart.Hits, rep.WarmStart.Eligible)
	}
	if rep.TotalIterations != s.TotalIterations() {
		t.Fatalf("report iterations %d != series %d", rep.TotalIterations, s.TotalIterations())
	}
	if rep.Windows != spec.Count || rep.Workers != 0 {
		t.Fatalf("windows=%d workers=%d, want %d/0", rep.Windows, rep.Workers, spec.Count)
	}
	if solve, ok := rep.PhaseSeconds("solve"); !ok || solve <= 0 {
		t.Fatalf("missing solve phase: %v %v", solve, ok)
	}
	if _, ok := rep.PhaseSeconds("tcsr_build"); !ok {
		t.Fatal("missing tcsr_build phase")
	}
	// SpMV sweeps the CSR once per window iteration.
	if len(rep.MWSweeps) != cfg.NumMultiWindows {
		t.Fatalf("MWSweeps len = %d, want %d", len(rep.MWSweeps), cfg.NumMultiWindows)
	}
	if rep.TotalSweeps != int64(rep.TotalIterations) {
		t.Fatalf("spmv sweeps %d != iterations %d", rep.TotalSweeps, rep.TotalIterations)
	}
	if s.AllConverged() {
		if rep.Residuals.Unconverged != 0 || rep.Residuals.Max >= cfg.Opts.Tol {
			t.Fatalf("residual summary inconsistent with convergence: %+v", rep.Residuals)
		}
	}
	for w, wid := range rep.WindowWorkers {
		if wid != -1 {
			t.Fatalf("serial run attributed window %d to worker %d", w, wid)
		}
	}
	if rep.Sched != nil {
		t.Fatal("serial run must not carry scheduler stats")
	}
	if rep.Build.GoVersion == "" || rep.Config.Kernel != "spmv" {
		t.Fatalf("missing build/config stamp: %+v %+v", rep.Build, rep.Config)
	}
}

func TestRunReportSerialSpMMWarmStart(t *testing.T) {
	// VectorLen 1 degenerates SpMM to a serial chain: hit rate 1.
	cfg := DefaultConfig()
	cfg.Kernel = SpMM
	cfg.VectorLen = 1
	cfg.NumMultiWindows = 3
	cfg.Directed = true
	s, _, _ := reportFixture(t, cfg, nil)
	if s.Report.WarmStart.HitRate != 1.0 {
		t.Fatalf("spmm K=1 serial hit rate = %v, want 1.0", s.Report.WarmStart.HitRate)
	}
	if s.Report.TotalSweeps <= 0 || s.Report.TotalSweeps > int64(s.Report.TotalIterations) {
		t.Fatalf("sweeps %d outside (0, iterations=%d]", s.Report.TotalSweeps, s.Report.TotalIterations)
	}

	// With K regions per multi-window graph, the K-1 region-first
	// windows (beyond the graph's own first window) cannot warm-start:
	// hits = sum over graphs of W - min(K, W).
	cfg.VectorLen = 4
	s, _, eng := reportFixture(t, cfg, nil)
	wantHits := 0
	for _, mw := range eng.Temporal().MWs {
		k := cfg.VectorLen
		if w := mw.NumWindows(); w > 0 {
			if k > w {
				k = w
			}
			wantHits += w - k
		}
	}
	if s.Report.WarmStart.Hits != wantHits {
		t.Fatalf("spmm K=4 hits = %d, want %d", s.Report.WarmStart.Hits, wantHits)
	}
}

func TestRunReportSchedStatsDelta(t *testing.T) {
	pool := sched.NewPool(4)
	defer pool.Close()
	pool.EnableMetrics(true)
	cfg := DefaultConfig()
	cfg.Kernel = SpMV
	cfg.Mode = WindowLevel
	cfg.NumMultiWindows = 3
	cfg.Directed = true

	s1, _, eng := reportFixture(t, cfg, pool)
	if s1.Report.Sched == nil {
		t.Fatal("no scheduler stats despite metrics enabled")
	}
	if s1.Report.Sched.TotalTasks <= 0 {
		t.Fatalf("no tasks recorded: %+v", s1.Report.Sched)
	}
	if len(s1.Report.Sched.Workers) != 4 || s1.Report.Workers != 4 {
		t.Fatalf("worker counts wrong: %d/%d", len(s1.Report.Sched.Workers), s1.Report.Workers)
	}
	// The report carries the delta for this run, not the pool lifetime:
	// a second run must not report accumulated counters.
	s2, err := eng.Run(context.Background())
	if err != nil {
		t.Fatalf("second Run: %v", err)
	}
	total := pool.Stats().TotalTasks()
	if s2.Report.Sched.TotalTasks <= 0 || s2.Report.Sched.TotalTasks >= total {
		t.Fatalf("second run delta %d not in (0, pool total %d)",
			s2.Report.Sched.TotalTasks, total)
	}
	// Window-level runs attribute every window to a real worker.
	for w, wid := range s2.Report.WindowWorkers {
		if wid < 0 || wid >= 4 {
			t.Fatalf("window %d attributed to worker %d", w, wid)
		}
	}
}

func TestRunReportJSONRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Kernel = SpMV
	cfg.NumMultiWindows = 2
	cfg.Directed = true
	s, _, _ := reportFixture(t, cfg, nil)
	var buf bytes.Buffer
	if err := s.Report.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var back RunReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if back.Windows != s.Report.Windows || back.Config.Kernel != "spmv" ||
		back.WarmStart.HitRate != s.Report.WarmStart.HitRate {
		t.Fatalf("round-trip mismatch: %+v", back)
	}
}

// TestEngineTraceRecordsWindowSpans checks the Chrome trace the
// journal derives: one window span per window on a pool worker's tid
// for both kernels (SpMM windows share their batch's wall time), and
// one phase span per pipeline stage.
func TestEngineTraceRecordsWindowSpans(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	l := randomLog(t, 31, 25, 600, 3000)
	spec, err := events.Span(l, 400, 120)
	if err != nil {
		t.Fatalf("Span: %v", err)
	}
	for _, kernel := range []KernelID{SpMV, SpMM} {
		t.Run(kernel.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Kernel = kernel
			cfg.Mode = Nested
			cfg.NumMultiWindows = 2
			cfg.VectorLen = 4
			cfg.Directed = true
			cfg.Journal = obs.NewJournal(0)
			tr := obs.NewTrace()
			cfg.Journal.SetTrace(tr)
			eng, err := NewEngine(l, spec, cfg, pool)
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			if _, err := eng.Run(context.Background()); err != nil {
				t.Fatalf("Run: %v", err)
			}
			var buf bytes.Buffer
			if err := tr.Write(&buf); err != nil {
				t.Fatalf("trace write: %v", err)
			}
			var obj struct {
				TraceEvents []obs.TraceEvent `json:"traceEvents"`
			}
			if err := json.Unmarshal(buf.Bytes(), &obj); err != nil {
				t.Fatalf("trace JSON: %v", err)
			}
			windows := map[string]bool{}
			phases := map[string]int{}
			for _, e := range obj.TraceEvents {
				switch e.Cat {
				case "window":
					if e.TID < 1 || e.TID > 2 {
						t.Fatalf("window span on tid %d, want pool worker tids", e.TID)
					}
					if windows[e.Name] {
						t.Fatalf("window span %q recorded twice", e.Name)
					}
					windows[e.Name] = true
				case "phase":
					phases[e.Name]++
				}
			}
			if len(windows) != spec.Count {
				t.Fatalf("trace has %d window spans, want %d", len(windows), spec.Count)
			}
			for _, stage := range []string{"build", "plan", "solve", "publish"} {
				if phases[stage] != 1 {
					t.Fatalf("trace has %d %q phase spans, want 1 (%v)", phases[stage], stage, phases)
				}
			}
		})
	}
}

func TestRankOK(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Kernel = SpMV
	cfg.NumMultiWindows = 2
	cfg.Directed = true
	s, _, _ := reportFixture(t, cfg, nil)
	r := s.Window(0)
	var probed int32 = -1
	r.ForEach(func(g int32, rank float64) {
		if probed < 0 {
			probed = g
		}
	})
	if probed < 0 {
		t.Fatal("window 0 has no ranked vertices")
	}
	got, ok := r.RankOK(probed)
	if !ok || got != r.Rank(probed) {
		t.Fatalf("RankOK(%d) = (%v, %v), Rank = %v", probed, got, ok, r.Rank(probed))
	}

	cfg.DiscardRanks = true
	s, _, _ = reportFixture(t, cfg, nil)
	if _, ok := s.Window(0).RankOK(probed); ok {
		t.Fatal("RankOK reported ok on discarded ranks")
	}
}

// liveInRuns counts mw's in-runs live in at least one of windows,
// walking the temporal CSR directly rather than a run index.
func liveInRuns(mw *tcsr.MultiWindow, windows []int) int64 {
	var n int64
	for v := 0; v < int(mw.NumLocal()); v++ {
		i, end := mw.InRow[v], mw.InRow[v+1]
		for i < end {
			j := i + 1
			for j < end && mw.InCol[j] == mw.InCol[i] {
				j++
			}
			for _, w := range windows {
				if ts, te := mw.Window(w); tcsr.RunActive(mw.InTime[i:j], ts, te) {
					n++
					break
				}
			}
			i = j
		}
	}
	return n
}

// TestRunsScannedMatchesBruteForce checks RunReport.RunsScanned against
// a count over the temporal CSR's in-runs: at width 1, Σ over windows
// of live in-runs × iterations; at width K, Σ over batches of the runs
// live in any of the batch's windows × the batch's sweeps.
func TestRunsScannedMatchesBruteForce(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	for _, kernel := range []KernelID{SpMV, SpMM} {
		for _, p := range []*sched.Pool{nil, pool} {
			cfg := DefaultConfig()
			cfg.Kernel = kernel
			cfg.VectorLen = 3
			cfg.NumMultiWindows = 2
			s, _, eng := reportFixture(t, cfg, p)
			plan := eng.Plan()
			var want int64
			if plan.Width == 1 {
				for w := 0; w < s.Len(); w++ {
					want += liveInRuns(plan.Temporal.ForWindow(w), []int{w}) * int64(s.Window(w).Iterations)
				}
			}
			for _, u := range plan.Units {
				for j := 0; j < u.NumBatches; j++ {
					var windows []int
					var sweeps int64
					for reg := 0; reg < u.K; reg++ {
						if off := u.RegionStart[reg] + j; off < u.RegionStart[reg+1] {
							w := u.MW.WinLo + off
							windows = append(windows, w)
							sweeps = max(sweeps, int64(s.Window(w).Iterations))
						}
					}
					want += liveInRuns(u.MW, windows) * sweeps
				}
			}
			if want == 0 {
				t.Fatalf("%v: fixture scans no runs", kernel)
			}
			if got := s.Report.RunsScanned; got != want {
				t.Errorf("%v pool=%v: RunsScanned = %d, brute force %d", kernel, p != nil, got, want)
			}
		}
	}
}
