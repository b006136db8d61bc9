// This file is the journal's reducer: the one code path that turns the
// event stream into the fault counters and window histograms /metrics
// exposes, the /status snapshot, and the optional Chrome trace.
// Journal.Append applies every event here under the journal lock, so
// unlike a Subscription (drop-on-full) or the ring (evicting) the
// reduction is lossless.

package obs

import (
	"fmt"
	"time"
)

// views is the reducer state a Journal owns.
type views struct {
	fault FaultCounters
	hist  *SolveHistograms
	// status holds the per-run counts; Journal.Status adds LastSeq and
	// the histogram summaries.
	status Status
	trace  *Trace // nil = no trace
}

func newViews() views {
	return views{hist: NewSolveHistograms(), status: Status{Phase: "idle"}}
}

// apply folds one stamped event into every view.
func (v *views) apply(e *Event) {
	switch e.Type {
	case EvRunStart:
		v.status = Status{Phase: "solve", WindowsTotal: e.Windows}
		if v.trace != nil {
			v.trace.ThreadName(0, "main")
			for i := 0; i < e.Workers; i++ {
				v.trace.ThreadName(i+1, fmt.Sprintf("worker %d", i))
			}
		}
	case EvRunEnd:
		v.status.Phase = e.Status
		if e.Status == "completed" {
			v.status.Phase = "done"
		}
	case EvStageStart:
		if e.Stage == "publish" {
			v.status.Phase = "publish"
		}
	case EvStageEnd:
		if v.trace != nil {
			v.span(e.Stage, "phase", e, nil)
		}
	case EvWindowStart, EvCancel:
	case EvWindowDone:
		v.windowDone(e)
	case EvRetry:
		v.fault.Retries.Inc()
		v.countPanic(e)
	case EvDegrade:
		v.fault.Degraded.Inc()
		v.countPanic(e)
	case EvQuarantine:
		v.fault.Quarantined.Inc()
		v.countPanic(e)
	case EvCheckpointWrite:
		if e.Err != "" {
			v.fault.CheckpointErrors.Inc()
		} else {
			v.fault.CheckpointWindows.Inc()
		}
	case EvCheckpointResume:
		v.fault.CheckpointResumed.Inc()
	}
}

func (v *views) countPanic(e *Event) {
	if e.Panicked {
		v.fault.PanicsRecovered.Inc()
	}
}

// windowDone counts a decided window on /status and, unless it was
// restored rather than solved, observes it on the histograms and the
// trace: iterations only for windows a kernel ran to a result,
// residuals only at convergence.
func (v *views) windowDone(e *Event) {
	st := &v.status
	st.WindowsDone++
	switch e.Status {
	case "retried":
		st.Retried++
	case "degraded":
		st.Degraded++
	case "resumed":
		st.Resumed++
		return
	case "failed":
		st.WindowsQuarantined++
	}
	v.hist.WindowWall.Observe(e.Seconds)
	if e.Status != "failed" {
		v.hist.Iterations.Observe(float64(e.Iterations))
	}
	if e.Converged {
		v.hist.Residual.Observe(e.Residual)
	}
	if v.trace != nil {
		v.span(fmt.Sprintf("window %d", e.Window), "window", e,
			map[string]interface{}{"iterations": e.Iterations, "status": e.Status})
	}
}

// span records e as a trace span that ends at its append stamp, lasts
// e.Seconds, and runs on tid e.Worker+1 (tid 0 = main).
func (v *views) span(name, cat string, e *Event, args map[string]interface{}) {
	dur := time.Duration(e.Seconds * float64(time.Second))
	v.trace.Complete(name, cat, e.Worker+1, time.Unix(0, e.TimeUnixNano).Add(-dur), dur, args)
}

// Status snapshots the run the journal is recording.
func (j *Journal) Status() Status {
	j.mu.Lock()
	st := j.view.status
	st.LastSeq = j.next - 1
	j.mu.Unlock()
	h := j.view.hist
	st.Histograms = map[string]HistogramSummary{
		"window_wall_seconds": h.WindowWall.Summary(),
		"window_iterations":   h.Iterations.Summary(),
		"window_residual":     h.Residual.Summary(),
	}
	return st
}

// FaultCounters exposes the journal-derived fault counters (atomics,
// safe to read while events are appended).
func (j *Journal) FaultCounters() *FaultCounters { return &j.view.fault }

// RegisterOn publishes the pmpr_engine_fault_*_total counters and the
// pmpr_window_* histograms on r, cumulative over every recorded run.
func (j *Journal) RegisterOn(r *Registry) {
	j.view.fault.RegisterOn(r, "pmpr_engine_fault")
	j.view.hist.RegisterOn(r, "pmpr_window")
}

// SetTrace attaches a Chrome trace that from then on receives a span
// per solved window (window_done) and per pipeline stage (stage_end).
// Pass nil to detach.
func (j *Journal) SetTrace(t *Trace) {
	j.mu.Lock()
	j.view.trace = t
	j.mu.Unlock()
}
