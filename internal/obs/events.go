// This file defines the run journal's event vocabulary: the typed,
// sequence-numbered records the solve pipeline appends as a run
// progresses. Events are flat value structs (no maps, no pointers)
// so appending one to the journal ring copies a fixed-size payload and
// allocates nothing; JSON rendering happens only at export time (JSONL
// sink, SSE stream), never at the emit site.

package obs

import (
	"encoding/json"
	"strconv"
)

// EventType names one kind of journal record. The string is the wire
// value of the "type" field in the JSONL/SSE encoding.
type EventType string

// The journal's event vocabulary. Every record carries seq,
// time_unix_nano, and type; the remaining fields depend on the type
// (see Event.AppendJSON for the exact per-type field sets).
const (
	// EvRunStart opens a run: total windows, mode, pool size, and the
	// update its plan runs (gauss-seidel, jacobi or cg).
	EvRunStart EventType = "run_start"
	// EvRunEnd closes a run with its status (completed, canceled,
	// failed), the windows decided, and the solve wall time.
	EvRunEnd EventType = "run_end"
	// EvStageStart marks a pipeline stage (build, plan, solve, publish)
	// beginning.
	EvStageStart EventType = "stage_start"
	// EvStageEnd marks a pipeline stage finishing, with its wall time
	// and, on failure, the error.
	EvStageEnd EventType = "stage_end"
	// EvWindowStart marks one window's solve attempt sequence beginning
	// on a worker.
	EvWindowStart EventType = "window_start"
	// EvWindowDone marks one window decided: status (ok, retried,
	// degraded, resumed, failed), iterations, final residual, whether it
	// converged, and wall time.
	EvWindowDone EventType = "window_done"
	// EvRetry marks a failed window attempt being retried.
	EvRetry EventType = "retry"
	// EvDegrade marks a window falling back to a serial re-solve.
	EvDegrade EventType = "degrade"
	// EvQuarantine marks a window failing terminally.
	EvQuarantine EventType = "quarantine"
	// EvCheckpointWrite marks a decided window flushed to the checkpoint
	// store, or, with err set, a failed flush.
	EvCheckpointWrite EventType = "checkpoint_write"
	// EvCheckpointResume marks a window restored from a checkpoint
	// instead of solved.
	EvCheckpointResume EventType = "checkpoint_resume"
	// EvCancel marks the run observing cancellation, with the progress
	// at that point.
	EvCancel EventType = "cancel"
)

// Event is one journal record. The struct is the union of every event
// type's fields; which ones are meaningful — and which appear in the
// JSON encoding — depends on Type. Window and Worker use -1 as "not
// applicable" so window 0 and worker 0 stay representable. The JSON
// tags let a JSONL line decode back into an Event (pmtop -validate).
type Event struct {
	// Seq (monotonic, 1-based) and TimeUnixNano (wall clock) are
	// stamped by the journal at append time; Type discriminates.
	Seq          uint64    `json:"seq"`
	TimeUnixNano int64     `json:"time_unix_nano"`
	Type         EventType `json:"type"`

	// Stage names the pipeline stage (stage_start, stage_end).
	Stage string `json:"stage"`
	// Window is the global window index of window-scoped events and
	// Worker the pool worker attribution; -1 when not applicable.
	Window int `json:"window"`
	Worker int `json:"worker"`
	// Status is the window_done outcome (WindowStatus string) or the
	// run_end outcome (completed, canceled, failed).
	Status string `json:"status"`
	// Iterations, Core, Residual (final L1), and Converged describe a
	// window_done; Converged is encoded only when true. Core is the
	// number of vertices the window's iterations ran over: its 2-core
	// under conjugate gradient (0 for a forest), every active vertex
	// under the sweeps.
	Iterations int     `json:"iterations"`
	Core       int     `json:"core"`
	Residual   float64 `json:"residual"`
	Converged  bool    `json:"converged"`
	// Seconds is the wall time (window_done, stage_end, run_end).
	Seconds float64 `json:"seconds"`
	// Attempt is the 1-based attempt count (retry, quarantine).
	Attempt int `json:"attempt"`
	// Panicked marks a retry, degrade, or quarantine caused by a
	// recovered panic (encoded only when true).
	Panicked bool `json:"panicked"`
	// Err is the failure message (retry, quarantine, checkpoint_write,
	// stage_end, run_end; encoded only when set).
	Err string `json:"err"`
	// Windows is the run's window count (run_start, run_end, cancel)
	// and Done the decided-window count (run_end, cancel).
	Windows int `json:"windows"`
	Done    int `json:"done"`
	// Mode, Workers (pool size) and Update (the plan's update:
	// gauss-seidel, jacobi or cg) describe a run_start.
	Mode    string `json:"mode"`
	Workers int    `json:"workers"`
	Update  string `json:"update"`
}

// Known reports whether t is one of the journal's event types.
func (t EventType) Known() bool {
	switch t {
	case EvRunStart, EvRunEnd, EvStageStart, EvStageEnd, EvWindowStart, EvWindowDone,
		EvRetry, EvDegrade, EvQuarantine, EvCheckpointWrite, EvCheckpointResume, EvCancel:
		return true
	}
	return false
}

// jsonSafe reports whether s needs no JSON escaping (printable ASCII
// without quotes or backslashes) — true for every string the pipeline
// emits except arbitrary error text.
func jsonSafe(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c >= 0x7f || c == '"' || c == '\\' {
			return false
		}
	}
	return true
}

// appendString appends `,"key":"value"` with proper JSON escaping.
func appendString(b []byte, key, val string) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	if jsonSafe(val) {
		b = append(b, '"')
		b = append(b, val...)
		b = append(b, '"')
		return b
	}
	// Arbitrary text (error messages): let encoding/json escape it. The
	// marshal of a plain string cannot fail.
	enc, _ := json.Marshal(val)
	return append(b, enc...)
}

// appendInt appends `,"key":n`.
func appendInt(b []byte, key string, n int64) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	return strconv.AppendInt(b, n, 10)
}

// appendFloat appends `,"key":x` in compact %g form.
func appendFloat(b []byte, key string, x float64) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	return strconv.AppendFloat(b, x, 'g', -1, 64)
}

// appendErr appends the optional `,"err":msg` when msg is set.
func appendErr(b []byte, msg string) []byte {
	if msg == "" {
		return b
	}
	return appendString(b, "err", msg)
}

// appendPanicked appends the optional `,"panicked":true`.
func appendPanicked(b []byte, panicked bool) []byte {
	if !panicked {
		return b
	}
	return append(b, `,"panicked":true`...)
}

// AppendJSON appends the event's single-line JSON object to b and
// returns the extended slice. Only the fields meaningful for the
// event's type are emitted, so every line of a journal export follows
// the documented per-type schema (see DESIGN.md "Run journal & event
// schema").
func (e *Event) AppendJSON(b []byte) []byte {
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, e.Seq, 10)
	b = appendInt(b, "time_unix_nano", e.TimeUnixNano)
	b = appendString(b, "type", string(e.Type))
	switch e.Type {
	case EvRunStart:
		b = appendInt(b, "windows", int64(e.Windows))
		b = appendString(b, "mode", e.Mode)
		b = appendInt(b, "workers", int64(e.Workers))
		b = appendString(b, "update", e.Update)
	case EvRunEnd:
		b = appendString(b, "status", e.Status)
		b = appendInt(b, "done", int64(e.Done))
		b = appendInt(b, "windows", int64(e.Windows))
		b = appendFloat(b, "seconds", e.Seconds)
		b = appendErr(b, e.Err)
	case EvStageStart:
		b = appendString(b, "stage", e.Stage)
	case EvStageEnd:
		b = appendString(b, "stage", e.Stage)
		b = appendFloat(b, "seconds", e.Seconds)
		b = appendErr(b, e.Err)
	case EvWindowStart:
		b = appendInt(b, "window", int64(e.Window))
		b = appendInt(b, "worker", int64(e.Worker))
	case EvWindowDone:
		b = appendInt(b, "window", int64(e.Window))
		b = appendInt(b, "worker", int64(e.Worker))
		b = appendString(b, "status", e.Status)
		b = appendInt(b, "iterations", int64(e.Iterations))
		b = appendInt(b, "core", int64(e.Core))
		b = appendFloat(b, "residual", e.Residual)
		if e.Converged {
			b = append(b, `,"converged":true`...)
		}
		b = appendFloat(b, "seconds", e.Seconds)
	case EvRetry, EvQuarantine:
		b = appendInt(b, "window", int64(e.Window))
		b = appendInt(b, "worker", int64(e.Worker))
		b = appendInt(b, "attempt", int64(e.Attempt))
		b = appendPanicked(b, e.Panicked)
		b = appendErr(b, e.Err)
	case EvDegrade:
		b = appendInt(b, "window", int64(e.Window))
		b = appendInt(b, "worker", int64(e.Worker))
		b = appendPanicked(b, e.Panicked)
	case EvCheckpointWrite:
		b = appendInt(b, "window", int64(e.Window))
		b = appendErr(b, e.Err)
	case EvCheckpointResume:
		b = appendInt(b, "window", int64(e.Window))
	case EvCancel:
		b = appendInt(b, "done", int64(e.Done))
		b = appendInt(b, "windows", int64(e.Windows))
	}
	return append(b, '}')
}

// MarshalJSON renders the event through AppendJSON, so exported JSON
// and the journal's JSONL/SSE wire format are the same bytes.
func (e Event) MarshalJSON() ([]byte, error) {
	return e.AppendJSON(nil), nil
}
