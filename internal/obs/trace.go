package obs

import (
	"encoding/json"
	"io"
	"os"
	"sync"
	"time"
)

// TraceEvent is one entry of the Chrome trace-event format (the JSON
// schema chrome://tracing and Perfetto load). Timestamps and durations
// are in microseconds relative to the trace start.
type TraceEvent struct {
	Name string                 `json:"name"`
	Cat  string                 `json:"cat,omitempty"`
	Ph   string                 `json:"ph"`
	TS   float64                `json:"ts"`
	Dur  float64                `json:"dur,omitempty"`
	PID  int                    `json:"pid"`
	TID  int                    `json:"tid"`
	Args map[string]interface{} `json:"args,omitempty"`
}

// Trace accumulates trace events in memory and serializes them as a
// Chrome trace JSON object. It is safe for concurrent use; recording an
// event takes one mutex acquisition, which is negligible next to the
// window solves being recorded (tracing is opt-in regardless).
type Trace struct {
	start time.Time

	mu     sync.Mutex
	events []TraceEvent
	meta   map[string]interface{}
}

// NewTrace starts a trace; event timestamps are relative to this call.
func NewTrace() *Trace {
	return &Trace{start: time.Now(), meta: map[string]interface{}{}}
}

func (t *Trace) push(e TraceEvent) {
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

func (t *Trace) micros(at time.Time) float64 {
	return float64(at.Sub(t.start)) / float64(time.Microsecond)
}

// Complete records a complete ("X") event: a span of dur starting at
// start on thread tid. args may be nil.
func (t *Trace) Complete(name, cat string, tid int, start time.Time, dur time.Duration, args map[string]interface{}) {
	t.push(TraceEvent{
		Name: name, Cat: cat, Ph: "X",
		TS: t.micros(start), Dur: float64(dur) / float64(time.Microsecond),
		TID: tid, Args: args,
	})
}

// ThreadName labels a tid in the trace viewer (metadata event).
func (t *Trace) ThreadName(tid int, name string) {
	t.push(TraceEvent{Name: "thread_name", Ph: "M", TID: tid,
		Args: map[string]interface{}{"name": name}})
}

// ProcessName labels the process row in the trace viewer.
func (t *Trace) ProcessName(name string) {
	t.push(TraceEvent{Name: "process_name", Ph: "M",
		Args: map[string]interface{}{"name": name}})
}

// SetMeta attaches a key to the trace's otherData section (build info,
// configuration, dataset name, ...).
func (t *Trace) SetMeta(key string, v interface{}) {
	t.mu.Lock()
	t.meta[key] = v
	t.mu.Unlock()
}

// Len returns the number of recorded events.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Write serializes the trace as a Chrome trace JSON object.
func (t *Trace) Write(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	obj := struct {
		TraceEvents     []TraceEvent           `json:"traceEvents"`
		DisplayTimeUnit string                 `json:"displayTimeUnit"`
		OtherData       map[string]interface{} `json:"otherData,omitempty"`
	}{t.events, "ms", t.meta}
	enc := json.NewEncoder(w)
	return enc.Encode(obj)
}

// WriteFile serializes the trace to path.
func (t *Trace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
