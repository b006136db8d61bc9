package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// GaugeFunc samples an instantaneous value at scrape time, so live
// state (pool stats, queue depths) is read only when someone asks.
type GaugeFunc func() float64

// FaultCounters tracks the solve stage's fault-tolerance activity. The
// journal's reducer counts it from the event stream, one event per
// window attempt. RegisterOn exposes the counters.
type FaultCounters struct {
	// PanicsRecovered counts retry, degrade, and quarantine events
	// flagged panicked; Retries counts retry events.
	PanicsRecovered, Retries Counter
	// Degraded and Quarantined count windows re-solved by the serial
	// fallback and windows failed terminally.
	Degraded, Quarantined Counter
	// CheckpointWindows, CheckpointResumed, and CheckpointErrors count
	// checkpoint writes, windows restored from one, and failed writes.
	CheckpointWindows, CheckpointResumed, CheckpointErrors Counter
}

// RegisterOn publishes the counters on r under the prefix (e.g.
// "pmpr_engine_fault").
func (c *FaultCounters) RegisterOn(r *Registry, prefix string) {
	r.RegisterCounter(prefix+"_panics_recovered_total", "per-window solve failures recovered from a panic", &c.PanicsRecovered)
	r.RegisterCounter(prefix+"_retries_total", "per-window solve retries", &c.Retries)
	r.RegisterCounter(prefix+"_degraded_total", "windows re-solved by the serial fallback", &c.Degraded)
	r.RegisterCounter(prefix+"_quarantined_total", "windows failed terminally", &c.Quarantined)
	r.RegisterCounter(prefix+"_checkpoint_windows_total", "window checkpoints written", &c.CheckpointWindows)
	r.RegisterCounter(prefix+"_checkpoint_resumed_total", "windows resumed from checkpoint", &c.CheckpointResumed)
	r.RegisterCounter(prefix+"_checkpoint_errors_total", "failed checkpoint writes", &c.CheckpointErrors)
}

type metric struct {
	name string
	help string
	kind string // "counter", "gauge", or "histogram"
	ctr  *Counter
	fn   GaugeFunc
	hist *Histogram
}

// Registry is a minimal metrics registry exposed over a
// Prometheus-style text endpoint. Metric names should follow Prometheus
// conventions (snake_case, counters ending in _total).
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{metrics: map[string]*metric{}} }

// RegisterCounter registers an externally-owned counter under name,
// replacing any previous registration. It lets owners keep incrementing
// a counter they embed (no registry indirection on the hot path) while
// still exposing it on the scrape surfaces.
func (r *Registry) RegisterCounter(name, help string, c *Counter) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics[name] = &metric{name: name, help: help, kind: "counter", ctr: c}
}

// Gauge registers a sampled gauge; fn is called at scrape time and must
// be safe for concurrent use.
func (r *Registry) Gauge(name, help string, fn GaugeFunc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics[name] = &metric{name: name, help: help, kind: "gauge", fn: fn}
}

// RegisterHistogram registers an externally-owned histogram under name,
// replacing any previous registration — the histogram counterpart of
// RegisterCounter.
func (r *Registry) RegisterHistogram(name, help string, h *Histogram) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics[name] = &metric{name: name, help: help, kind: "histogram", hist: h}
}

func (r *Registry) sorted() []*metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// WriteProm renders the registry in the Prometheus text exposition
// format. Histograms render the standard cumulative _bucket series
// with le labels (including +Inf), plus _sum and _count.
func (r *Registry) WriteProm(w io.Writer) {
	for _, m := range r.sorted() {
		if m.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", m.name, m.kind)
		switch {
		case m.ctr != nil:
			fmt.Fprintf(w, "%s %d\n", m.name, m.ctr.Value())
		case m.hist != nil:
			s := m.hist.Snapshot()
			var cum int64
			for i, bound := range s.Bounds {
				cum += s.Counts[i]
				fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", m.name, formatLe(bound), cum)
			}
			cum += s.Counts[len(s.Bounds)]
			fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", m.name, cum)
			fmt.Fprintf(w, "%s_sum %g\n", m.name, s.Sum)
			fmt.Fprintf(w, "%s_count %d\n", m.name, s.Count)
		default:
			fmt.Fprintf(w, "%s %g\n", m.name, m.fn())
		}
	}
}

// formatLe renders a bucket bound the way Prometheus clients do.
func formatLe(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
