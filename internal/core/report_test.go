package core

import (
	"context"

	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"

	"pmpr/internal/checkpoint"
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
	// Each window iteration sweeps the CSR once.
	if len(rep.MWSweeps) != cfg.NumMultiWindows {
		t.Fatalf("MWSweeps len = %d, want %d", len(rep.MWSweeps), cfg.NumMultiWindows)
	}
	if rep.TotalSweeps != int64(rep.TotalIterations) {
		t.Fatalf("sweeps %d != iterations %d", rep.TotalSweeps, rep.TotalIterations)
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
	if rep.Build.GoVersion == "" || rep.Config.Mode != cfg.Mode.String() {
		t.Fatalf("missing build/config stamp: %+v %+v", rep.Build, rep.Config)
	}
}

func TestRunReportSchedStatsDelta(t *testing.T) {
	pool := sched.NewPool(4)
	defer pool.Close()
	pool.EnableMetrics(true)
	cfg := DefaultConfig()
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
	if back.Windows != s.Report.Windows || back.Config.Mode != s.Report.Config.Mode ||
		back.WarmStart.HitRate != s.Report.WarmStart.HitRate {
		t.Fatalf("round-trip mismatch: %+v", back)
	}
}

// TestRunReportRecordsForkDecision checks that the report carries the
// plan's unit count and fork decision, in Go and in its JSON, and that
// the solve honors the decision: the pool runs more leaf tasks than the
// plan has units iff the plan forks the vertex loops (each unforked
// unit runs inside one leaf of the outer loop). The pooled
// window-level and nested cases use a grain above the window count, so
// each multi-window graph is one warm-start chain.
func TestRunReportRecordsForkDecision(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	pool.EnableMetrics(true)
	const oneChain = 1000 // grain: no multi-window graph is cut
	cases := []struct {
		mode  ParallelMode
		pool  *sched.Pool
		mws   int
		grain int // 0 = DefaultConfig's
		units int
		fork  bool
	}{
		{AppLevel, nil, 1, 0, 1, false},
		{Nested, nil, 1, 0, 1, false},
		{AppLevel, pool, 1, 0, 1, true},
		{WindowLevel, pool, 1, oneChain, 1, false},
		{Nested, pool, 1, oneChain, 1, true},  // one unit cannot fill two workers
		{Nested, pool, 3, oneChain, 3, false}, // three units can
	}
	for _, tc := range cases {
		label := fmt.Sprintf("%v pooled=%v mws=%d", tc.mode, tc.pool != nil, tc.mws)
		cfg := DefaultConfig()
		if tc.grain > 0 {
			cfg.Grain = tc.grain
		}
		cfg.Mode = tc.mode
		cfg.NumMultiWindows = tc.mws
		cfg.Directed = true
		s, _, eng := reportFixture(t, cfg, tc.pool)
		rep := s.Report
		if rep.Units != tc.units || len(eng.Plan().Units) != tc.units {
			t.Fatalf("%s: report has %d units, plan %d; want %d", label, rep.Units, len(eng.Plan().Units), tc.units)
		}
		if rep.ForkVertexLoops != tc.fork || eng.Plan().ForkVertexLoops != tc.fork {
			t.Fatalf("%s: report ForkVertexLoops = %v, plan %v, want %v",
				label, rep.ForkVertexLoops, eng.Plan().ForkVertexLoops, tc.fork)
		}
		if rep.Sched != nil {
			if forked := rep.Sched.TotalTasks > int64(tc.units); forked != tc.fork {
				t.Fatalf("%s: pool ran %d leaf tasks for %d units, want forked = %v",
					label, rep.Sched.TotalTasks, tc.units, tc.fork)
			}
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatalf("%s: WriteJSON: %v", label, err)
		}
		var back map[string]any
		if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
			t.Fatalf("%s: report JSON: %v", label, err)
		}
		if back["units"] != float64(tc.units) || back["fork_vertex_loops"] != tc.fork {
			t.Fatalf("%s: JSON units = %v, fork_vertex_loops = %v", label, back["units"], back["fork_vertex_loops"])
		}
	}
}

// TestEngineTraceRecordsWindowSpans checks the Chrome trace the
// journal derives: one window span per window on a pool worker's tid,
// and one phase span per pipeline stage. The subtest is named after the
// engine's one kernel, SpMV.
func TestEngineTraceRecordsWindowSpans(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	l := randomLog(t, 31, 25, 600, 3000)
	spec, err := events.Span(l, 400, 120)
	if err != nil {
		t.Fatalf("Span: %v", err)
	}
	t.Run("spmv", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.Mode = Nested
		cfg.NumMultiWindows = 2
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

func TestRankOK(t *testing.T) {
	cfg := DefaultConfig()
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

// liveInRun counts mw's in-runs live in window w, walking the temporal
// CSR directly rather than a run index.
func liveInRun(mw *tcsr.MultiWindow, w int) int64 {
	ts, te := mw.Window(w)
	var n int64
	for v := 0; v < int(mw.NumLocal()); v++ {
		i, end := mw.InRow[v], mw.InRow[v+1]
		for i < end {
			j := i + 1
			for j < end && mw.InCol[j] == mw.InCol[i] {
				j++
			}
			if tcsr.RunActive(mw.InTime[i:j], ts, te) {
				n++
			}
			i = j
		}
	}
	return n
}

// TestRunsScannedMatchesBruteForce checks RunReport.RunsScanned against
// a count over the temporal CSR's in-runs: Σ over the windows of the
// runs live in the window × its sweeps (its iterations).
func TestRunsScannedMatchesBruteForce(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	for _, p := range []*sched.Pool{nil, pool} {
		cfg := DefaultConfig()
		cfg.NumMultiWindows = 2
		s, spec, eng := reportFixture(t, cfg, p)
		var want int64
		for w := 0; w < spec.Count; w++ {
			want += liveInRun(eng.Temporal().ForWindow(w), w) * int64(s.Window(w).Iterations)
		}
		if want == 0 {
			t.Fatal("fixture scans no runs")
		}
		if got := s.Report.RunsScanned; got != want {
			t.Errorf("pool=%v: RunsScanned = %d, brute force %d", p != nil, got, want)
		}
	}
}

// storedRuns counts the runs of one temporal CSR side: per vertex, the
// maximal stretches of equal neighbors.
func storedRuns(row []int64, col []int32) int64 {
	var n int64
	for v := 0; v+1 < len(row); v++ {
		for i := row[v]; i < row[v+1]; i++ {
			if i == row[v] || col[i] != col[i-1] {
				n++
			}
		}
	}
	return n
}

// activeInWindow counts mw's vertices with an in- or out-run live in
// window w, walking the temporal CSR directly.
func activeInWindow(mw *tcsr.MultiWindow, w int) int64 {
	ts, te := mw.Window(w)
	live := func(row []int64, col []int32, times []int64, v int) bool {
		i, end := row[v], row[v+1]
		for i < end {
			j := i + 1
			for j < end && col[j] == col[i] {
				j++
			}
			if tcsr.RunActive(times[i:j], ts, te) {
				return true
			}
			i = j
		}
		return false
	}
	var n int64
	for v := 0; v < int(mw.NumLocal()); v++ {
		if live(mw.InRow, mw.InCol, mw.InTime, v) || live(mw.OutRow, mw.OutCol, mw.OutTime, v) {
			n++
		}
	}
	return n
}

// TestInitAndPairCountsMatchBruteForce checks RunReport.InitRunsVisited
// and RunReport.PairsSwept against counts over the temporal CSR. Every
// window's Init walks its multi-window graph's stored in-runs once,
// plus its out-runs when the graph is directed; the sweeps advance each
// window's active vertices once per iteration.
func TestInitAndPairCountsMatchBruteForce(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	for _, directed := range []bool{false, true} {
		l := randomLog(t, 31, 25, 600, 3000)
		if !directed {
			l = l.Symmetrize()
		}
		spec, err := events.Span(l, 400, 120)
		if err != nil {
			t.Fatalf("Span: %v", err)
		}
		for _, p := range []*sched.Pool{nil, pool} {
			label := fmt.Sprintf("directed=%v pool=%v", directed, p != nil)
			cfg := DefaultConfig()
			cfg.Directed = directed
			cfg.NumMultiWindows = 2
			eng, err := NewEngine(l, spec, cfg, p)
			if err != nil {
				t.Fatalf("%s: NewEngine: %v", label, err)
			}
			s, err := eng.Run(context.Background())
			if err != nil {
				t.Fatalf("%s: Run: %v", label, err)
			}
			var wantRuns, wantPairs int64
			for _, u := range eng.Plan().Units {
				perInit := storedRuns(u.MW.InRow, u.MW.InCol)
				if directed {
					perInit += storedRuns(u.MW.OutRow, u.MW.OutCol)
				}
				wantRuns += perInit * int64(u.Hi-u.Lo)
			}
			for w := 0; w < spec.Count; w++ {
				wantPairs += activeInWindow(eng.Temporal().ForWindow(w), w) * int64(s.Window(w).Iterations)
			}
			if wantRuns == 0 || wantPairs == 0 {
				t.Fatalf("%s: fixture walks %d runs and sweeps %d pairs", label, wantRuns, wantPairs)
			}
			if got := s.Report.InitRunsVisited; got != wantRuns {
				t.Errorf("%s: InitRunsVisited = %d, brute force %d", label, got, wantRuns)
			}
			if got := s.Report.PairsSwept; got != wantPairs {
				t.Errorf("%s: PairsSwept = %d, brute force %d", label, got, wantPairs)
			}
		}
	}
}

// TestFullyResumedRunCountsNoSweeps checks that sweep and scan counts
// record only the work a run did: a run that restores every window
// from a checkpoint sweeps nothing, serially and on a pooled
// window-level plan.
func TestFullyResumedRunCountsNoSweeps(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	for _, p := range []*sched.Pool{nil, pool} {
		label := fmt.Sprintf("pool=%v", p != nil)
		cfg := DefaultConfig()
		cfg.Mode = WindowLevel
		store, err := checkpoint.Open(filepath.Join(t.TempDir(), "ck"))
		if err != nil {
			t.Fatalf("checkpoint.Open: %v", err)
		}
		l := randomLog(t, 31, 25, 600, 3000)
		spec, err := events.Span(l, 400, 120)
		if err != nil {
			t.Fatalf("Span: %v", err)
		}
		for _, resume := range []bool{false, true} {
			eng, err := NewEngine(l, spec, cfg, p)
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			if _, err := eng.SetCheckpoint(store, resume); err != nil {
				t.Fatalf("SetCheckpoint(%v): %v", resume, err)
			}
			s, err := eng.Run(context.Background())
			if err != nil {
				t.Fatalf("%s resume=%v: Run: %v", label, resume, err)
			}
			rep := s.Report
			if !resume {
				if rep.TotalSweeps == 0 || rep.RunsScanned == 0 {
					t.Fatalf("%s: checkpointed run reports %d sweeps, %d runs scanned", label, rep.TotalSweeps, rep.RunsScanned)
				}
				continue
			}
			if rep.Fault.Resumed != spec.Count {
				t.Fatalf("%s: %d of %d windows resumed", label, rep.Fault.Resumed, spec.Count)
			}
			if rep.TotalSweeps != 0 || rep.RunsScanned != 0 {
				t.Errorf("%s: fully resumed run reports TotalSweeps = %d, RunsScanned = %d, want 0 and 0",
					label, rep.TotalSweeps, rep.RunsScanned)
			}
		}
	}
}
