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
// requests the units made of their workspaces (role-buffer sizings and
// rank-vector takes) and how many were served without allocating. A
// warmed-up serial engine reports Misses == 0 and HitRate == 1, whether
// it retains or discards ranks.
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
	// Update is the update every window ran (SolvePlan.Update): "jacobi"
	// when the plan forks vertex loops; otherwise "cg" for an undirected
	// solve of a symmetrized log and "gauss-seidel" for any other.
	Update string `json:"update"`
	// Workers is the pool size (0 = fully serial run).
	Workers int     `json:"workers"`
	Phases  []Phase `json:"phases"`

	Windows         int            `json:"windows"`
	TotalIterations int            `json:"total_iterations"`
	WarmStart       WarmStartStats `json:"warm_start"`
	// MWSweeps[i] counts the sweeps this run made over multi-window
	// graph i's shared CSR: Σ over its solved windows of their
	// iterations, where a forest the peel solved in Init (ForestWindows)
	// counts one, the pass its elimination and true-residual pull made.
	// So TotalSweeps is TotalIterations + ForestWindows when nothing was
	// restored. Windows restored from a checkpoint add nothing, here, to
	// TotalSweeps or to RunsScanned.
	MWSweeps    []int64 `json:"mw_sweeps"`
	TotalSweeps int64   `json:"total_sweeps"`
	// RunsScanned is the counted scan work: every solved window adds
	// the runs its passes walked, where they ran. A sweep walks the
	// window's live in-runs. Under conjugate gradient, the peel walks
	// each peeled vertex's runs once, every step's pull and every
	// restart's residual pull walk the core's runs, and every stop's
	// true-residual pull walks the window's live in-runs.
	RunsScanned int64 `json:"runs_scanned"`
	// InitRunsVisited is the run-index work: each unit walks its
	// multi-window graph's stored in-runs once (plus its out-runs when
	// the graph is directed), and each window's Init adds the runs it
	// inserted into or removed from the chain's index, which are its
	// entering and leaving runs, or every live run when it rebuilds.
	InitRunsVisited int64 `json:"init_runs_visited"`
	// PairsSwept is the per-vertex work: Σ over solved windows of the
	// vertices their passes visited. A sweep visits the active
	// vertices. Under conjugate gradient the peel and every stop's
	// back-substitution visit the peeled vertices, a step's pull and a
	// restart the core's, and a stop's true-residual pull the active
	// vertices.
	PairsSwept int64         `json:"pairs_swept"`
	Residuals  ResidualStats `json:"residuals"`
	// CoreShare is Σ CoreVertices / Σ ActiveVertices over the windows
	// this run solved: the share of active vertices the iterations ran
	// over. Conjugate gradient iterates only each window's 2-core;
	// the sweeps iterate every active vertex, so they read 1.
	CoreShare float64 `json:"core_share"`
	// ForestWindows counts the solved windows with active vertices whose
	// peel left no core: conjugate gradient solved them exactly, in
	// Init, with no iteration.
	ForestWindows int `json:"forest_windows"`

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
