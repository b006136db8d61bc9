package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestJournalViews drives the reducer through two runs and checks every
// derived view: per-run /status counts, cumulative counters and
// histograms, and the trace spans.
func TestJournalViews(t *testing.T) {
	j := NewJournal(64)
	tr := NewTrace()
	j.SetTrace(tr)
	if st := j.Status(); st.Phase != "idle" || st.LastSeq != 0 {
		t.Fatalf("fresh status = %+v", st)
	}
	j.EmitStageEnd("build", 0.5, "")
	j.EmitRunStart(4, "nested", 2, "gauss-seidel")
	j.EmitRetry(0, 1, 1, "boom", true)
	j.EmitRetry(1, 1, 1, "boom", true)
	j.EmitWindowDone(0, 1, "retried", 7, 0, 1e-9, true, 0.25)
	j.EmitWindowDone(1, 1, "retried", 9, 0, 1e-3, false, 0.25)
	j.EmitCheckpointWrite(0, "")
	j.EmitCheckpointWrite(1, "disk full")
	j.EmitCheckpointResume(2)
	j.EmitWindowDone(2, 0, "resumed", 5, 0, 1e-9, true, 3)
	j.EmitDegrade(3, 0, false)
	j.EmitWindowDone(3, 0, "degraded", 4, 0, 1e-9, true, 0.1)
	if st := j.Status(); st.Phase != "solve" || st.WindowsDone != 4 || st.Retried != 2 ||
		st.Resumed != 1 || st.Degraded != 1 || st.WindowsTotal != 4 {
		t.Fatalf("mid-run status = %+v", st)
	}
	j.EmitStageStart("publish")
	if st := j.Status(); st.Phase != "publish" {
		t.Fatalf("phase after stage_start{publish} = %q", st.Phase)
	}
	j.EmitRunEnd("completed", 4, 4, 1, "")
	st := j.Status()
	if st.Phase != "done" || st.LastSeq != j.LastSeq() {
		t.Fatalf("final status = %+v", st)
	}
	// The resumed window was not solved this run: no histogram sample.
	if h := st.Histograms["window_wall_seconds"]; h.Count != 3 || h.Sum != 0.6 {
		t.Fatalf("wall histogram = %+v, want the 3 solved windows", h)
	}
	if h := st.Histograms["window_residual"]; h.Count != 2 {
		t.Fatalf("residual histogram = %+v, want the 2 converged solved windows", h)
	}

	// A second run restarts the status counts; the counters accumulate.
	j.EmitRunStart(1, "nested", 2, "gauss-seidel")
	j.EmitQuarantine(0, 0, 3, "boom", true)
	j.EmitWindowDone(0, 0, "failed", 0, 0, 0, false, 0.01)
	j.EmitRunEnd("failed", 1, 1, 1, "x")
	if st := j.Status(); st.Phase != "failed" || st.WindowsDone != 1 || st.Retried != 0 || st.WindowsQuarantined != 1 {
		t.Fatalf("second-run status = %+v", st)
	}
	reg := NewRegistry()
	j.RegisterOn(reg)
	var prom strings.Builder
	reg.WriteProm(&prom)
	for _, want := range []string{
		"pmpr_engine_fault_retries_total 2\n",
		"pmpr_engine_fault_panics_recovered_total 3\n",
		"pmpr_engine_fault_degraded_total 1\n",
		"pmpr_engine_fault_quarantined_total 1\n",
		"pmpr_engine_fault_checkpoint_windows_total 1\n",
		"pmpr_engine_fault_checkpoint_errors_total 1\n",
		"pmpr_engine_fault_checkpoint_resumed_total 1\n",
		"pmpr_window_wall_seconds_count 4\n",
		"pmpr_window_iterations_count 3\n",
	} {
		if !strings.Contains(prom.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, prom.String())
		}
	}

	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var obj struct {
		TraceEvents []TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &obj); err != nil {
		t.Fatal(err)
	}
	spans := map[string]TraceEvent{}
	n := 0
	for _, e := range obj.TraceEvents {
		if e.Ph == "X" {
			spans[e.Name+"/"+e.Cat] = e
			n++
		}
	}
	// build, windows 0, 1 and 3 of the first run, window 0 of the second.
	if n != 5 || len(spans) != 4 {
		t.Fatalf("%d spans %v, want 5 over 4 names", n, spans)
	}
	if s := spans["window 1/window"]; s.TID != 2 || s.Dur != 250000 {
		t.Fatalf("window 1 span = %+v, want tid 2 and 250ms", s)
	}
	if s := spans["build/phase"]; s.TID != 0 || s.Dur != 500000 {
		t.Fatalf("build span = %+v, want tid 0 and 500ms", s)
	}
}
