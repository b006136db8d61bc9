package core

import (
	"encoding/json"
	"io"
	"os"

	"pmpr/internal/obs"
	"pmpr/internal/sched"
)

// Phase is one timed stage of a run (event load, TCSR build, solve).
type Phase struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// WarmStartStats quantifies the paper's "if the same thread processes
// Gi-1 and Gi, partial initialization occurs" claim (Sec. 4.3).
// Eligible counts the windows that could warm-start under ideal
// scheduling: PartialInit is on and the window's predecessor lies in
// the same multi-window graph. Hits counts the windows that actually
// did. Serial runs hit every eligible window; the plan's unit
// boundaries lower the rate (a pooled plan cuts a multi-window graph
// into several warm-start chains), which is exactly what this metric
// makes visible.
type WarmStartStats struct {
	Eligible int     `json:"eligible"`
	Hits     int     `json:"hits"`
	HitRate  float64 `json:"hit_rate"`
}

// ResidualStats summarizes the final per-window L1 residuals.
type ResidualStats struct {
	Max         float64 `json:"max"`
	Mean        float64 `json:"mean"`
	Unconverged int     `json:"unconverged"`
}

// SchedReport is the scheduler's share of a run: the per-worker
// counters plus the aggregate load-balance summary.
type SchedReport struct {
	Workers       []sched.WorkerStats `json:"workers"`
	TotalTasks    int64               `json:"total_tasks"`
	TotalSteals   int64               `json:"total_steals"`
	TotalSplits   int64               `json:"total_splits"`
	LoadImbalance float64             `json:"load_imbalance"`
}

// ScratchReport is the scratch arena's share of a run: how many buffer
// requests the kernels made and how many were served from the free
// lists. A warmed-up engine under Config.DiscardRanks reports
// Misses == 0 and HitRate == 1.
type ScratchReport struct {
	Gets    int64   `json:"gets"`
	Hits    int64   `json:"hits"`
	Misses  int64   `json:"misses"`
	HitRate float64 `json:"hit_rate"`
}

// FaultReport summarizes how the fault-tolerance machinery touched a
// run's windows: how many needed retries, how many fell back to a
// serial re-solve, how many were restored from a checkpoint, and which
// were quarantined. An all-zero report is the healthy case.
type FaultReport struct {
	// Retried counts windows that succeeded after at least one failed
	// attempt.
	Retried int `json:"retried"`
	// Degraded counts windows solved by the serial fallback.
	Degraded int `json:"degraded"`
	// Resumed counts windows restored from a checkpoint.
	Resumed int `json:"resumed"`
	// Quarantined lists the global indices of terminally failed windows.
	Quarantined []int `json:"quarantined,omitempty"`
}

// RunReport aggregates the observability of one Engine.Run: phase
// timers, warm-start behavior, per-multi-window sweep counts, final
// residuals, per-window wall time and worker attribution, and (when
// pool metrics are enabled) the scheduler counters. It is attached to
// the Series and JSON-exportable (pmrank -report-out).
type RunReport struct {
	Build  obs.BuildInfo `json:"build"`
	Config ConfigInfo    `json:"config"`
	// Units is the plan's unit count (SolvePlan.Units), and
	// ForkVertexLoops its decision to fork the units' vertex loops on
	// the pool: a nested run forks only when Units < Workers.
	Units           int  `json:"units"`
	ForkVertexLoops bool `json:"fork_vertex_loops"`
	// Workers is the pool size (0 = fully serial run).
	Workers int     `json:"workers"`
	Phases  []Phase `json:"phases"`

	Windows         int            `json:"windows"`
	TotalIterations int            `json:"total_iterations"`
	WarmStart       WarmStartStats `json:"warm_start"`
	// MWSweeps[i] counts the sweeps this run made over multi-window
	// graph i's shared CSR: Σ over its solved windows of their
	// iterations. Windows restored from a checkpoint add nothing, here,
	// to TotalSweeps or to RunsScanned.
	MWSweeps    []int64 `json:"mw_sweeps"`
	TotalSweeps int64   `json:"total_sweeps"`
	// RunsScanned is the counted scan work: every solved window adds
	// its run index size (its live in-runs) times the sweeps it ran.
	RunsScanned int64 `json:"runs_scanned"`
	// InitRunsVisited is the stored runs every window's Init walked: the
	// multi-window graph's in-runs, once, to build the run index, plus
	// its out-runs for a directed graph's degrees.
	InitRunsVisited int64 `json:"init_runs_visited"`
	// PairsSwept is the per-vertex work of the sweeps: Σ over windows of
	// active vertices × iterations.
	PairsSwept int64         `json:"pairs_swept"`
	Residuals  ResidualStats `json:"residuals"`

	// WindowWallSeconds[w] is window w's solve wall time.
	WindowWallSeconds []float64 `json:"window_wall_seconds"`
	// WindowWorkers[w] is the pool worker that solved window w (-1 when
	// the window loop ran outside the pool, e.g. serial or app-level).
	WindowWorkers []int `json:"window_workers"`

	// Sched holds the pool counter delta for this run; nil unless
	// Pool.EnableMetrics was on.
	Sched *SchedReport `json:"sched,omitempty"`

	// Scratch holds the arena counter delta for this run.
	Scratch *ScratchReport `json:"scratch,omitempty"`

	// Fault summarizes retries, degrades, resumes, and quarantines.
	Fault FaultReport `json:"fault"`

	WallSeconds float64 `json:"wall_seconds"`
}

// SetPhase records (or overwrites) a named phase timer. The pipeline
// fills "tcsr_build", "plan", "solve", and "publish"; callers that time
// surrounding stages (event load, symmetrization) can add theirs before
// exporting.
func (r *RunReport) SetPhase(name string, seconds float64) {
	for i := range r.Phases {
		if r.Phases[i].Name == name {
			r.Phases[i].Seconds = seconds
			return
		}
	}
	r.Phases = append(r.Phases, Phase{Name: name, Seconds: seconds})
}

// PhaseSeconds returns a named phase timer.
func (r *RunReport) PhaseSeconds(name string) (float64, bool) {
	for i := range r.Phases {
		if r.Phases[i].Name == name {
			return r.Phases[i].Seconds, true
		}
	}
	return 0, false
}

// WriteJSON writes the indented report followed by a newline.
func (r *RunReport) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteJSONFile writes the report to path.
func (r *RunReport) WriteJSONFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
