package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestStatusHandler(t *testing.T) {
	fn := func() Status {
		return Status{
			Phase: "solve", WindowsTotal: 30, WindowsDone: 11,
			Retried: 2, LastSeq: 40,
			Histograms: map[string]HistogramSummary{
				"window_wall_seconds": {Count: 11, Sum: 1.5, P50: 0.1, P95: 0.3, P99: 0.4},
			},
		}
	}
	srv := httptest.NewServer(StatusHandler(fn))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	//pmvet:ignore closecheck -- test response body
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("Content-Type = %q", ct)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Phase != "solve" || st.WindowsDone != 11 || st.WindowsTotal != 30 ||
		st.Retried != 2 || st.LastSeq != 40 {
		t.Fatalf("round-tripped status = %+v", st)
	}
	h, ok := st.Histograms["window_wall_seconds"]
	if !ok || h.Count != 11 || h.P95 != 0.3 {
		t.Fatalf("histogram summary = %+v (ok=%v)", h, ok)
	}
}

// sseFrame is one parsed Server-Sent Events frame.
type sseFrame struct {
	id    uint64
	event string // "" for default (message) frames
	data  string
}

// readFrames parses SSE frames off r until n frames arrive or the
// stream ends. Comment lines (heartbeats) are skipped.
func readFrames(t *testing.T, r *bufio.Reader, n int) []sseFrame {
	t.Helper()
	var frames []sseFrame
	cur := sseFrame{}
	for len(frames) < n {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("stream ended after %d/%d frames: %v", len(frames), n, err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if cur.data != "" || cur.event != "" {
				frames = append(frames, cur)
				cur = sseFrame{}
			}
		case strings.HasPrefix(line, ":"):
			// heartbeat comment
		case strings.HasPrefix(line, "id: "):
			id, err := strconv.ParseUint(line[len("id: "):], 10, 64)
			if err != nil {
				t.Fatalf("bad id line %q: %v", line, err)
			}
			cur.id = id
		case strings.HasPrefix(line, "event: "):
			cur.event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			cur.data = line[len("data: "):]
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	return frames
}

// openStream connects to the events endpoint with an optional
// Last-Event-ID and returns a frame reader plus a cancel func.
func openStream(t *testing.T, url string, lastEventID uint64) (*bufio.Reader, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if lastEventID > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(lastEventID, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		cancel()
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		cancel()
		t.Fatalf("Content-Type = %q", ct)
	}
	stop := func() {
		cancel()
		resp.Body.Close()
	}
	return bufio.NewReader(resp.Body), stop
}

func TestEventsHandlerStreamsLive(t *testing.T) {
	j := NewJournal(64)
	j.EmitRunStart(3, "nested", 1)
	srv := httptest.NewServer(EventsHandler(j))
	defer srv.Close()

	r, stop := openStream(t, srv.URL, 0)
	defer stop()

	// The retained event replays immediately.
	frames := readFrames(t, r, 1)
	if frames[0].id != 1 {
		t.Fatalf("replay frame id = %d, want 1", frames[0].id)
	}
	var m map[string]interface{}
	if err := json.Unmarshal([]byte(frames[0].data), &m); err != nil {
		t.Fatalf("frame data is not JSON: %v\n%s", err, frames[0].data)
	}
	if m["type"] != string(EvRunStart) {
		t.Fatalf("frame type = %v", m["type"])
	}

	// Live appends stream in order with seq as the SSE id.
	for w := 0; w < 3; w++ {
		j.EmitWindowDone(w, 0, "ok", 5, 1e-9, true, 0.01)
	}
	frames = readFrames(t, r, 3)
	for i, f := range frames {
		if f.id != uint64(2+i) {
			t.Fatalf("live frame %d id = %d, want %d", i, f.id, 2+i)
		}
		if f.event != "" {
			t.Fatalf("live frame %d unexpected event type %q", i, f.event)
		}
		if !strings.Contains(f.data, `"type":"window_done"`) {
			t.Fatalf("live frame %d data: %s", i, f.data)
		}
	}
}

func TestEventsHandlerLastEventIDResume(t *testing.T) {
	j := NewJournal(64)
	for w := 0; w < 10; w++ {
		j.EmitWindowDone(w, 0, "ok", 1, 0, true, 0)
	}
	srv := httptest.NewServer(EventsHandler(j))
	defer srv.Close()

	// Reconnect from the middle: replay must start at exactly seq 7 with
	// no lagged frame (nothing evicted).
	r, stop := openStream(t, srv.URL, 6)
	defer stop()
	frames := readFrames(t, r, 4)
	for i, f := range frames {
		if f.event != "" {
			t.Fatalf("frame %d: unexpected %q frame during lossless resume", i, f.event)
		}
		if f.id != uint64(7+i) {
			t.Fatalf("resume frame %d id = %d, want %d", i, f.id, 7+i)
		}
	}
}

func TestEventsHandlerLaggedFrameOnEvictedResume(t *testing.T) {
	j := NewJournal(4)
	for w := 0; w < 10; w++ {
		j.EmitWindowDone(w, 0, "ok", 1, 0, true, 0)
	}
	// Ring holds seqs 7..10; a client resuming from 2 has a gap.
	srv := httptest.NewServer(EventsHandler(j))
	defer srv.Close()

	r, stop := openStream(t, srv.URL, 2)
	defer stop()
	frames := readFrames(t, r, 5)
	if frames[0].event != "lagged" {
		t.Fatalf("first frame = %+v, want lagged", frames[0])
	}
	var lag struct {
		NextSeq uint64 `json:"next_seq"`
	}
	if err := json.Unmarshal([]byte(frames[0].data), &lag); err != nil {
		t.Fatalf("lagged data: %v\n%s", err, frames[0].data)
	}
	if lag.NextSeq != 7 {
		t.Fatalf("lagged next_seq = %d, want 7 (oldest retained)", lag.NextSeq)
	}
	for i, f := range frames[1:] {
		if f.id != uint64(7+i) {
			t.Fatalf("post-lag frame %d id = %d, want %d", i, f.id, 7+i)
		}
	}
}

func TestEventsHandlerQuerySince(t *testing.T) {
	j := NewJournal(64)
	for w := 0; w < 5; w++ {
		j.EmitWindowDone(w, 0, "ok", 1, 0, true, 0)
	}
	srv := httptest.NewServer(EventsHandler(j))
	defer srv.Close()

	// curl-style ?since= resumes like Last-Event-ID.
	r, stop := openStream(t, srv.URL+"?since=3", 0)
	defer stop()
	frames := readFrames(t, r, 2)
	if frames[0].id != 4 || frames[1].id != 5 {
		t.Fatalf("since=3 frames = %d,%d, want 4,5", frames[0].id, frames[1].id)
	}
}

// TestShutdownForceClosesSSEStreams pins the exit behavior of a server
// with a live /events watcher attached: an SSE stream never finishes
// on its own, so graceful Shutdown must fall back to force-closing it
// at the deadline and report success, not an error.
func TestShutdownForceClosesSSEStreams(t *testing.T) {
	j := NewJournal(16)
	j.EmitRunStart(1, "nested", 1)
	mux := http.NewServeMux()
	HandleLive(mux, j, nil)
	srv, err := ServeHandler("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	r, stop := openStream(t, "http://"+srv.Addr().String()+"/events", 0)
	defer stop()
	readFrames(t, r, 1) // the stream is established and replaying

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown with open SSE stream: %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("Shutdown took %v; the open stream blocked it", d)
	}
	// The client side observes the stream ending.
	if _, err := r.ReadString('\n'); err == nil {
		t.Fatal("stream still readable after Shutdown")
	}
}

func TestHandleLiveMounts(t *testing.T) {
	j := NewJournal(16)
	j.EmitRunStart(1, "nested", 1)
	mux := http.NewServeMux()
	HandleLive(mux, j, func() Status { return Status{Phase: "idle"} })
	srv := httptest.NewServer(mux)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || st.Phase != "idle" {
		t.Fatalf("/status: %v %+v", err, st)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/events", nil)
	eresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	//pmvet:ignore closecheck -- test response body
	defer eresp.Body.Close()
	frames := readFrames(t, bufio.NewReader(eresp.Body), 1)
	if frames[0].id != 1 {
		t.Fatalf("/events first frame id = %d", frames[0].id)
	}
}
