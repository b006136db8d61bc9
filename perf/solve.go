package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"syscall"
	"time"

	"pmpr/internal/core"
	"pmpr/internal/csr"
	"pmpr/internal/events"
	"pmpr/internal/gen"
	"pmpr/internal/pagerank"
	"pmpr/internal/results"
	"pmpr/internal/sched"
)

// oracleWindows is how many windows each solve checks against the dense
// oracle, and oracleTol the per-vertex tolerance (as in core's tests).
const (
	oracleWindows = 8
	oracleTol     = 1e-5
)

// runSolve is the pmrank -out job: event file → decode → symmetrize →
// BuildStage → PlanStage → SolveStage → PublishStage → .pmrs closed,
// timed from outside each call. The outputs are checked afterwards,
// untimed: every window must have status OK, eight seeded windows must
// match pagerank.Reference, and the written file must decode
// bit-identically to the in-memory series.
func runSolve(ctx context.Context, j job) (childResult, error) {
	var tr *tracer
	if j.TraceOut != "" {
		tr = newTracer()
	}
	pool := sched.NewPool(runtime.GOMAXPROCS(0))
	defer pool.Close()
	pool.EnableMetrics(tr != nil)
	cfg := core.DefaultConfig()

	start := time.Now()
	root := tr.begin("ranks", 0)
	sp := tr.begin("events.decode", root.s.ID)
	l, err := readEvents(j.Events)
	if err != nil {
		return childResult{}, err
	}
	sp.end()
	sp = tr.begin("events.symmetrize", root.s.ID)
	l = l.Symmetrize()
	sp.end()
	spec, err := events.Span(l, int64(j.DeltaDays*float64(gen.Day)), j.Slide)
	if err != nil {
		return childResult{}, err
	}
	sp = tr.begin("tcsr.build", root.s.ID)
	built, err := core.BuildStage{}.Run(core.BuildInput{Log: l, Spec: spec, Cfg: cfg})
	if err != nil {
		return childResult{}, err
	}
	sp.end()
	sp = tr.begin("core.plan", root.s.ID)
	plan, err := core.PlanStage{}.Run(core.PlanInput{Temporal: built.Temporal, Cfg: cfg, Workers: pool.NumWorkers()})
	if err != nil {
		return childResult{}, err
	}
	sp.end()
	setup := time.Since(start)
	sp = tr.begin("core.solve", root.s.ID)
	out, err := core.NewSolveStage(pool).Run(ctx, plan)
	if err != nil {
		return childResult{}, err
	}
	sp.end()
	sp = tr.begin("core.publish", root.s.ID)
	series, err := core.PublishStage{}.Run(core.PublishInput{Plan: plan, Solve: out, BuildSeconds: built.Seconds})
	if err != nil {
		return childResult{}, err
	}
	sp.end()
	sp = tr.begin("results.encode", root.s.ID)
	if err := writeRanks(j.Ranks, series); err != nil {
		return childResult{}, err
	}
	sp.end()
	root.end()
	res := childResult{RanksSeconds: time.Since(start).Seconds(), SetupSeconds: setup.Seconds()}
	if res.RSSMB, err = maxRSSMB(); err != nil {
		return childResult{}, err
	}

	why, err := checkSolve(l, series, j.Ranks, cfg, j.Seed)
	if err != nil {
		return childResult{}, err
	}
	res.Attempted = series.Len()
	for w, reason := range why {
		if reason == "" {
			continue
		}
		if res.Failed < 3 {
			fmt.Fprintf(os.Stderr, "perf: window %d failed: %s\n", w, reason)
		}
		res.Failed++
	}
	if tr == nil {
		return res, nil
	}
	res.Layers = solveLayers(tr, l, built, series, j.Ranks)
	return res, tr.writeFile(j.TraceOut)
}

func readEvents(path string) (*events.Log, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return events.ReadBinary(f)
}

func writeRanks(path string, s *core.Series) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := results.Write(f, s.Export()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRanks(path string) (*results.Series, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return results.Read(f)
}

// checkSolve returns, per window, why the window failed a check ("" if
// it passed them all). A window that stopped at MaxIter short of the
// tolerance has not failed: the engine reports that through Converged
// (core.unconverged counts it), cold-started windows of the seed code
// routinely need more than the default 100 iterations, and the oracle
// comparison bounds the error either way.
func checkSolve(sym *events.Log, s *core.Series, path string, cfg core.Config, seed int64) ([]string, error) {
	why := make([]string, s.Len())
	for w := range why {
		if st := s.Window(w).Status; st != core.WindowOK {
			why[w] = "status " + st.String()
		}
	}
	picks := rand.New(rand.NewSource(seed)).Perm(s.Len())
	if len(picks) > oracleWindows {
		picks = picks[:oracleWindows]
	}
	for _, w := range picks {
		r := s.Window(w)
		if !r.HasRanks() {
			why[w] = "no ranks to check against the oracle"
			continue
		}
		g, err := csr.FromLogWindow(sym, s.Spec.Start(w), s.Spec.End(w))
		if err != nil {
			return nil, err
		}
		want, err := pagerank.Reference(g, cfg.Opts)
		if err != nil {
			return nil, err
		}
		for v, x := range r.Dense(s.NumVertices) {
			if d := math.Abs(x - want[v]); d > oracleTol {
				why[w] = fmt.Sprintf("vertex %d is %g off the oracle", v, d)
				break
			}
		}
	}
	dec, err := readRanks(path)
	if err == nil && len(dec.Windows) != s.Len() {
		err = fmt.Errorf("%d windows, want %d", len(dec.Windows), s.Len())
	}
	if err != nil {
		for w := range why {
			why[w] = "reading the .pmrs back: " + err.Error()
		}
		return why, nil
	}
	src := s.Export()
	for w := range why {
		if !sameWindow(src.WindowAt(w), dec.Windows[w]) {
			why[w] = "the .pmrs does not round-trip bit-identically"
		}
	}
	return why, nil
}

// sameWindow reports whether two windows are bit-identical.
func sameWindow(a, b results.WindowRanks) bool {
	if a.Window != b.Window || a.Iterations != b.Iterations || a.Converged != b.Converged ||
		a.UsedPartialInit != b.UsedPartialInit || len(a.Vertices) != len(b.Vertices) || len(a.Ranks) != len(b.Ranks) {
		return false
	}
	for i := range a.Vertices {
		if a.Vertices[i] != b.Vertices[i] || math.Float64bits(a.Ranks[i]) != math.Float64bits(b.Ranks[i]) {
			return false
		}
	}
	return true
}

// solveLayers derives the solve-side per-layer metrics from the spans
// and the run's own report.
func solveLayers(tr *tracer, sym *events.Log, built core.BuildOutput, s *core.Series, path string) map[string]float64 {
	spans := tr.spans()
	self := selfTimes(spans)
	m := make(map[string]float64)
	for _, sp := range spans {
		if sp.Name != "ranks" {
			m[sp.Name+"_s"] = self[sp.ID].Seconds()
		}
	}
	tg := built.Temporal
	rep := s.Report
	stored := tg.TotalStoredEvents()
	m["tcsr.stored_events"] = float64(stored)
	m["tcsr.replication"] = float64(stored) / float64(sym.Len())
	m["tcsr.memory_mb"] = float64(tg.MemoryBytes()) / (1 << 20)
	m["core.sweeps"] = float64(rep.TotalSweeps)
	m["core.iterations"] = float64(rep.TotalIterations)
	m["core.unconverged"] = float64(rep.Residuals.Unconverged)
	var scanned, useful float64
	for i, mw := range tg.MWs {
		scanned += float64(rep.MWSweeps[i]) * float64(mw.NumEvents())
		for w := mw.WinLo; w < mw.WinHi; w++ {
			useful += float64(s.Window(w).Iterations) * float64(mw.ActiveEdges(w))
		}
	}
	m["core.edges_scanned"] = scanned
	m["core.scan_efficiency"] = useful / scanned
	m["core.warm_start_rate"] = rep.WarmStart.HitRate
	wall := make([]float64, len(rep.WindowWallSeconds))
	for i, x := range rep.WindowWallSeconds {
		wall[i] = x * 1000
	}
	d := summarize(wall)
	m["core.window_p50_ms"], m["core.window_p99_ms"] = d.P50, d.P99
	if rep.Scratch != nil {
		m["core.scratch_hit_rate"] = rep.Scratch.HitRate
	}
	if rep.Sched != nil {
		m["sched.load_imbalance"] = rep.Sched.LoadImbalance
		m["sched.steals"] = float64(rep.Sched.TotalSteals)
	}
	if fi, err := os.Stat(path); err == nil {
		m["results.mb"] = float64(fi.Size()) / (1 << 20)
	}
	return m
}

// maxRSSMB returns this process's peak resident set size so far.
func maxRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports kilobytes
}
