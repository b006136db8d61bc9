// This file implements the live observability endpoints the obs mux
// can host next to the scrape surfaces:
//
//	/status  a JSON snapshot of the run in flight (Journal.Status)
//	/events  the run journal as Server-Sent Events, resumable from a
//	         sequence number via the standard Last-Event-ID header
//
// pmrank -live and pmserve wire them up; cmd/pmtop consumes /status.

package obs

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"
)

// Status is the JSON document /status serves: where the run is and how
// far along. Journal.Status derives it from the event stream;
// cmd/pmtop (and any other watcher) unmarshals the same struct.
//
// Scopes: the window and fault counts cover the current (or most
// recent) run only — run_start restarts them — and mean the same as
// core.RunReport's Fault rollup (Retried counts windows decided with
// status retried, not attempts). The histogram summaries are
// cumulative over every run the journal recorded, like the /metrics
// series they summarize.
type Status struct {
	// Phase is the run phase: "idle", "solve", "publish", "done",
	// "canceled", or "failed".
	Phase string `json:"phase"`
	// WindowsTotal is the run's window count.
	WindowsTotal int `json:"windows_total"`
	// WindowsDone counts decided windows (solved, restored, or failed).
	WindowsDone int `json:"windows_done"`
	// WindowsQuarantined counts terminally failed windows.
	WindowsQuarantined int `json:"windows_quarantined"`
	// Retried, Degraded, and Resumed count windows decided with that
	// status.
	Retried  int64 `json:"retried"`
	Degraded int64 `json:"degraded"`
	Resumed  int64 `json:"resumed"`
	// LastSeq is the journal's most recent sequence number, so a
	// watcher knows where to resume /events from.
	LastSeq uint64 `json:"last_seq"`
	// Histograms summarizes the per-window distributions by name
	// ("window_wall_seconds", "window_iterations", "window_residual").
	Histograms map[string]HistogramSummary `json:"histograms,omitempty"`
}

// StatusHandler serves fn's snapshot (typically Journal.Status) as
// JSON. fn is called once per request and must be safe for concurrent
// use.
func StatusHandler(fn func() Status) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		b, err := json.MarshalIndent(fn(), "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		b = append(b, '\n')
		if _, err := w.Write(b); err != nil {
			// The client went away mid-write; nothing useful to do.
			return
		}
	})
}

// sseHeartbeat is how often the SSE stream emits a comment line when no
// events flow, keeping intermediaries from timing the connection out.
const sseHeartbeat = 15 * time.Second

// lastEventID extracts the resume position: the standard Last-Event-ID
// header (set by browsers' EventSource on reconnect), or a ?since=
// query parameter for curl-style consumers. 0 means "from the oldest
// retained event".
func lastEventID(r *http.Request) uint64 {
	s := r.Header.Get("Last-Event-ID")
	if s == "" {
		s = r.URL.Query().Get("since")
	}
	if s == "" {
		return 0
	}
	id, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0
	}
	return id
}

// EventsHandler streams the journal as Server-Sent Events. Each frame
// carries the event's sequence number as its SSE id and the JSONL
// object as its data, so a disconnected client that reconnects with
// Last-Event-ID resumes exactly where it stopped — losslessly, as long
// as the requested events are still in the ring. When the requested
// range (or part of a slow subscriber's live stream) has been evicted
// or dropped, the stream interposes an "event: lagged" frame whose
// data reports the next live sequence number, so consumers know they
// have a gap instead of silently missing events.
func EventsHandler(j *Journal) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		flusher, ok := w.(http.Flusher)
		if !ok {
			http.Error(w, "streaming unsupported", http.StatusInternalServerError)
			return
		}
		// A long-lived stream must outlive the server's WriteTimeout
		// (and ReadTimeout — the connection's read deadline also kills
		// writes once it fires). Clear both for this connection only, so
		// the server-wide limits keep protecting every ordinary handler.
		// Errors are deliberately ignored: under a non-net/http server
		// (httptest's ResponseRecorder) there is no deadline to clear.
		rc := http.NewResponseController(w)
		rc.SetWriteDeadline(time.Time{})
		rc.SetReadDeadline(time.Time{})

		h := w.Header()
		h.Set("Content-Type", "text/event-stream")
		h.Set("Cache-Control", "no-store")
		h.Set("X-Accel-Buffering", "no")
		w.WriteHeader(http.StatusOK)

		after := lastEventID(r)
		replay, sub := j.SubscribeSince(after, 1024)
		defer sub.Close()

		var buf []byte
		writeEvent := func(e *Event) bool {
			buf = buf[:0]
			buf = append(buf, "id: "...)
			buf = strconv.AppendUint(buf, e.Seq, 10)
			buf = append(buf, "\ndata: "...)
			buf = e.AppendJSON(buf)
			buf = append(buf, "\n\n"...)
			_, err := w.Write(buf)
			return err == nil
		}
		writeLagged := func(nextSeq uint64) bool {
			buf = buf[:0]
			buf = append(buf, "event: lagged\ndata: {\"next_seq\":"...)
			buf = strconv.AppendUint(buf, nextSeq, 10)
			buf = append(buf, "}\n\n"...)
			_, err := w.Write(buf)
			return err == nil
		}

		// Replay whatever the ring still holds past the resume point;
		// announce the gap first when older events were already evicted.
		if len(replay) > 0 && after > 0 && replay[0].Seq > after+1 {
			if !writeLagged(replay[0].Seq) {
				return
			}
		}
		lastSent := after
		for i := range replay {
			if !writeEvent(&replay[i]) {
				return
			}
			lastSent = replay[i].Seq
		}
		flusher.Flush()

		heartbeat := time.NewTicker(sseHeartbeat)
		defer heartbeat.Stop()
		ctx := r.Context()
		for {
			select {
			case <-ctx.Done():
				return
			case <-heartbeat.C:
				if _, err := w.Write([]byte(": keepalive\n\n")); err != nil {
					return
				}
				flusher.Flush()
			case e := <-sub.C():
				// Write it and whatever else is buffered, then flush once.
				for more := true; more; {
					// The drop policy only ever skips events between channel
					// receives, so a sequence jump is the lag signal.
					if e.Seq > lastSent+1 && !writeLagged(e.Seq) {
						return
					}
					if !writeEvent(&e) {
						return
					}
					lastSent = e.Seq
					select {
					case e = <-sub.C():
					default:
						more = false
					}
				}
				flusher.Flush()
			}
		}
	})
}

// HandleLive mounts the live endpoints on mux: /status (when fn is
// non-nil) and /events (when j is non-nil).
func HandleLive(mux *http.ServeMux, j *Journal, fn func() Status) {
	if fn != nil {
		mux.Handle("/status", StatusHandler(fn))
	}
	if j != nil {
		mux.Handle("/events", EventsHandler(j))
	}
}
