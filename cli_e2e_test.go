package pmpr

// End-to-end tests of the command-line tools: generate a dataset with
// pmgen, analyze it with pmrank (exporting the rank series), and run a
// quick harness experiment with pmbench. These build and execute the
// real binaries via `go run`.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"pmpr/internal/obs"
	"pmpr/internal/results"
)

func runTool(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	cmd.Dir = "."
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run %v: %v\n%s", args, err, out)
	}
	return string(out)
}

func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI e2e skipped in -short mode")
	}
	tmp := t.TempDir()
	ev := filepath.Join(tmp, "enron.ev")
	pmrs := filepath.Join(tmp, "ranks.pmrs")

	out := runTool(t, "./cmd/pmgen", "-dataset", "enron", "-scale", "0.02", "-seed", "3", "-o", ev, "-format", "binary")
	if _, err := os.Stat(ev); err != nil {
		t.Fatalf("pmgen produced no file: %v (output: %s)", err, out)
	}

	out = runTool(t, "./cmd/pmrank", "-in", ev, "-delta-days", "365", "-slide", "172800",
		"-max-windows", "12", "-top", "2", "-out", pmrs)
	if !strings.Contains(out, "postmortem: 12 windows") {
		t.Fatalf("unexpected pmrank output:\n%s", out)
	}

	f, err := os.Open(pmrs)
	if err != nil {
		t.Fatalf("open exported series: %v", err)
	}
	defer f.Close()
	series, err := results.Read(f)
	if err != nil {
		t.Fatalf("read exported series: %v", err)
	}
	if series.Spec.Count != 12 || len(series.Windows) != 12 {
		t.Fatalf("exported series has %d windows, want 12", len(series.Windows))
	}
	for w, wr := range series.Windows {
		var sum float64
		for _, r := range wr.Ranks {
			sum += r
		}
		if len(wr.Ranks) > 0 && (sum < 0.999 || sum > 1.001) {
			t.Fatalf("window %d ranks sum to %v", w, sum)
		}
	}

	// The other models run on the same file.
	for _, model := range []string{"streaming", "offline", "components", "kcore"} {
		out := runTool(t, "./cmd/pmrank", "-in", ev, "-delta-days", "365", "-slide", "172800",
			"-max-windows", "6", "-model", model)
		if !strings.Contains(out, "6 windows") {
			t.Fatalf("%s: unexpected output:\n%s", model, out)
		}
	}
	// pmrank rejects a deleted model as unknown, with the usage-error
	// status.
	const deleted = "closeness"
	bin := filepath.Join(tmp, "pmrank")
	if msg, err := exec.Command("go", "build", "-o", bin, "./cmd/pmrank").CombinedOutput(); err != nil {
		t.Fatalf("go build pmrank: %v\n%s", err, msg)
	}
	msg, err := exec.Command(bin, "-in", ev, "-max-windows", "6", "-model", deleted).CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 || !strings.Contains(string(msg), "unknown model") {
		t.Fatalf("pmrank -model %s: err %v, want exit status 2 and \"unknown model\":\n%s", deleted, err, msg)
	}

	// A quick harness experiment prints its table.
	out = runTool(t, "./cmd/pmbench", "-exp", "table1", "-quick", "-scale", "0.02")
	if !strings.Contains(out, "enron") || !strings.Contains(out, "wikitalk") {
		t.Fatalf("pmbench table1 output incomplete:\n%s", out)
	}
	// fig6 drives postmortem engine runs (full vs partial init).
	out = runTool(t, "./cmd/pmbench", "-exp", "fig6", "-quick", "-scale", "0.02")
	if !strings.Contains(out, "=== fig6:") || !strings.Contains(out, "partial iters") ||
		!strings.Contains(out, "wikitalk") {
		t.Fatalf("pmbench fig6 output incomplete:\n%s", out)
	}
}

// e2eFrame is one SSE frame off the /events stream.
type e2eFrame struct {
	id    uint64
	event string
	data  string
}

// readFrame parses the next SSE frame (skipping heartbeat comments).
func readFrame(r *bufio.Reader) (e2eFrame, error) {
	var f e2eFrame
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return f, err
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if f.data != "" || f.event != "" {
				return f, nil
			}
		case strings.HasPrefix(line, ":"):
			// heartbeat
		case strings.HasPrefix(line, "id: "):
			id, err := strconv.ParseUint(line[len("id: "):], 10, 64)
			if err != nil {
				return f, fmt.Errorf("bad id line %q: %v", line, err)
			}
			f.id = id
		case strings.HasPrefix(line, "event: "):
			f.event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			f.data = line[len("data: "):]
		default:
			return f, fmt.Errorf("unexpected SSE line %q", line)
		}
	}
}

// TestCLILiveObservability drives the full live path end to end: build
// the real pmrank binary, run it with -live and -journal-out against a
// generated dataset (a per-window delay faultpoint stretches the solve
// so the run is observably in flight), then assert /status reports a
// mid-solve snapshot, /events streams ordered window_done frames with
// a lossless Last-Event-ID resume, and the journal file validates with
// pmtop -validate.
func TestCLILiveObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI e2e skipped in -short mode")
	}
	tmp := t.TempDir()
	ev := filepath.Join(tmp, "enron.ev")
	journal := filepath.Join(tmp, "run.jsonl")
	runTool(t, "./cmd/pmgen", "-dataset", "enron", "-scale", "0.02", "-seed", "3", "-o", ev, "-format", "binary")

	bin := filepath.Join(tmp, "pmrank")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/pmrank").CombinedOutput(); err != nil {
		t.Fatalf("go build pmrank: %v\n%s", err, out)
	}

	const windows = 12
	cmd := exec.Command(bin, "-in", ev, "-delta-days", "365", "-slide", "172800",
		"-max-windows", strconv.Itoa(windows), "-workers", "1",
		"-metrics-addr", "127.0.0.1:0", "-live", "-journal-out", journal)
	// Every window passes the core.solve.window faultpoint; 25ms per
	// window keeps the run in flight for ~300ms without slowing CI much.
	cmd.Env = append(os.Environ(), "PMPR_FAULTPOINTS=core.solve.window:delay:delay=25ms,count=0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatalf("start pmrank: %v", err)
	}
	killed := time.AfterFunc(90*time.Second, func() { cmd.Process.Kill() })
	defer killed.Stop()
	defer cmd.Process.Kill()

	// Collect pmrank's output and watch for the bound address.
	addrRe := regexp.MustCompile(`serving metrics on http://([^/]+)/`)
	addrCh := make(chan string, 1)
	outDone := make(chan string, 1)
	go func() {
		var all strings.Builder
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			all.WriteString(line)
			all.WriteByte('\n')
			if m := addrRe.FindStringSubmatch(line); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
		outDone <- all.String()
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case out := <-outDone:
		t.Fatalf("pmrank exited before serving metrics:\n%s", out)
	case <-time.After(60 * time.Second):
		t.Fatal("timed out waiting for the metrics address")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Second)
	defer cancel()
	stream := func(lastEventID uint64) (*bufio.Reader, func()) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/events", nil)
		if err != nil {
			t.Fatal(err)
		}
		if lastEventID > 0 {
			req.Header.Set("Last-Event-ID", strconv.FormatUint(lastEventID, 10))
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			cmd.Process.Kill()
			t.Fatalf("GET /events: %v\npmrank output:\n%s", err, <-outDone)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /events: %s", resp.Status)
		}
		return bufio.NewReader(resp.Body), func() { resp.Body.Close() }
	}
	r, closeStream := stream(0)
	defer closeStream()

	// Read frames until run_end, checking ordering and collecting the
	// window_done stream; after the first window lands (eleven delayed
	// windows remain, so the run is reliably mid-solve) snapshot /status
	// and exercise a Last-Event-ID reconnect — both must happen while
	// the run is in flight, because pmrank tears the server down on exit.
	var (
		lastSeq     uint64
		doneWindows []int
		runEnd      map[string]interface{}
	)
	for runEnd == nil {
		f, err := readFrame(r)
		if err != nil {
			t.Fatalf("reading /events after seq %d: %v", lastSeq, err)
		}
		if f.event != "" {
			t.Fatalf("unexpected %q frame: %s", f.event, f.data)
		}
		if f.id <= lastSeq {
			t.Fatalf("frame id %d not increasing (previous %d)", f.id, lastSeq)
		}
		lastSeq = f.id
		var m map[string]interface{}
		if err := json.Unmarshal([]byte(f.data), &m); err != nil {
			t.Fatalf("frame %d data is not JSON: %v\n%s", f.id, err, f.data)
		}
		switch m["type"] {
		case "window_done":
			doneWindows = append(doneWindows, int(m["window"].(float64)))
			if len(doneWindows) == 1 {
				resp, err := http.Get("http://" + addr + "/status")
				if err != nil {
					t.Fatalf("GET /status: %v", err)
				}
				var st obs.Status
				err = json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
				if err != nil {
					t.Fatalf("decode /status: %v", err)
				}
				if st.Phase != "solve" {
					t.Fatalf("mid-run /status phase = %q, want solve (%+v)", st.Phase, st)
				}
				if st.WindowsTotal != windows || st.WindowsDone < 1 || st.WindowsDone >= windows {
					t.Fatalf("mid-run /status windows = %d/%d", st.WindowsDone, st.WindowsTotal)
				}
				if st.LastSeq == 0 {
					t.Fatal("mid-run /status has no journal position")
				}
				if h, ok := st.Histograms["window_wall_seconds"]; !ok || h.Count < 1 {
					t.Fatalf("mid-run /status histograms = %+v", st.Histograms)
				}

				// A reconnect with Last-Event-ID resumes exactly after
				// the given seq — lossless, no lagged frame (the ring
				// still holds everything, so the next frame follows
				// immediately or as soon as the next event fires).
				r2, closeStream2 := stream(f.id)
				f2, err := readFrame(r2)
				closeStream2()
				if err != nil {
					t.Fatalf("resumed stream: %v", err)
				}
				if f2.event != "" || f2.id != f.id+1 {
					t.Fatalf("resumed stream first frame id=%d event=%q, want id=%d", f2.id, f2.event, f.id+1)
				}
			}
		case "run_end":
			runEnd = m
		}
	}
	if len(doneWindows) != windows {
		t.Fatalf("saw %d window_done frames, want %d (%v)", len(doneWindows), windows, doneWindows)
	}
	seen := map[int]bool{}
	for _, w := range doneWindows {
		if w < 0 || w >= windows || seen[w] {
			t.Fatalf("bad window_done sequence %v", doneWindows)
		}
		seen[w] = true
	}
	if runEnd["status"] != "completed" || int(runEnd["done"].(float64)) != windows {
		t.Fatalf("run_end = %v", runEnd)
	}

	closeStream()
	// Drain stdout to EOF before Wait, which closes the pipe and would
	// drop output the reader has not consumed yet.
	out := <-outDone
	if err := cmd.Wait(); err != nil {
		t.Fatalf("pmrank: %v", err)
	}
	if !strings.Contains(out, "event journal written to") {
		t.Fatalf("pmrank output missing journal confirmation:\n%s", out)
	}

	// The journal file passes schema validation.
	vout := runTool(t, "./cmd/pmtop", "-validate", journal)
	if !strings.Contains(vout, "events ok") || !strings.Contains(vout, "window_done=12") {
		t.Fatalf("pmtop -validate output:\n%s", vout)
	}
}

// TestCLIServe drives the serving pipeline end to end: generate a
// dataset, solve it with pmrank exporting a .pmrs series, then run the
// real pmserve binary on it and query every /v1 endpoint over HTTP —
// including the cache-provenance header and the error statuses — plus
// the composed obs endpoints on the same address. A corrupt .pmrs must
// be refused at startup with a structured error, never a panic.
func TestCLIServe(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI e2e skipped in -short mode")
	}
	tmp := t.TempDir()
	ev := filepath.Join(tmp, "enron.ev")
	pmrs := filepath.Join(tmp, "ranks.pmrs")
	runTool(t, "./cmd/pmgen", "-dataset", "enron", "-scale", "0.02", "-seed", "3", "-o", ev, "-format", "binary")
	runTool(t, "./cmd/pmrank", "-in", ev, "-delta-days", "365", "-slide", "172800",
		"-max-windows", "8", "-out", pmrs)

	bin := filepath.Join(tmp, "pmserve")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/pmserve").CombinedOutput(); err != nil {
		t.Fatalf("go build pmserve: %v\n%s", err, out)
	}

	// A corrupt series is refused with a diagnostic, not a panic.
	bad := filepath.Join(tmp, "bad.pmrs")
	if err := os.WriteFile(bad, []byte("PMRS\x01\x00\x00\x00garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := exec.Command(bin, "-load", bad, "-addr", "127.0.0.1:0").CombinedOutput(); err == nil {
		t.Fatalf("pmserve accepted a corrupt series:\n%s", out)
	} else if strings.Contains(string(out), "panic") || !strings.Contains(string(out), "results:") {
		t.Fatalf("corrupt series should fail with a structured results error:\n%s", out)
	}

	cmd := exec.Command(bin, "-load", pmrs, "-addr", "127.0.0.1:0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatalf("start pmserve: %v", err)
	}
	killed := time.AfterFunc(90*time.Second, func() { cmd.Process.Kill() })
	defer killed.Stop()
	defer cmd.Process.Kill()

	addrRe := regexp.MustCompile(`serving on http://([^/]+)/`)
	addrCh := make(chan string, 1)
	outDone := make(chan string, 1)
	go func() {
		var all strings.Builder
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			all.WriteString(line)
			all.WriteByte('\n')
			if m := addrRe.FindStringSubmatch(line); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
		outDone <- all.String()
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case out := <-outDone:
		t.Fatalf("pmserve exited before serving:\n%s", out)
	case <-time.After(60 * time.Second):
		t.Fatal("timed out waiting for the pmserve address")
	}
	base := "http://" + addr

	// The store publishes right after the address line; poll briefly
	// until /v1/windows stops answering 503.
	var windowsDoc struct {
		Spec struct {
			Count int `json:"count"`
		} `json:"spec"`
		NumVertices int32                    `json:"num_vertices"`
		Windows     []map[string]interface{} `json:"windows"`
		Cache       map[string]interface{}   `json:"cache"`
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/windows")
		if err != nil {
			t.Fatalf("GET /v1/windows: %v", err)
		}
		if resp.StatusCode == http.StatusOK {
			err = json.NewDecoder(resp.Body).Decode(&windowsDoc)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("decode /v1/windows: %v", err)
			}
			break
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || time.Now().After(deadline) {
			t.Fatalf("GET /v1/windows: %s", resp.Status)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if windowsDoc.Spec.Count != 8 || len(windowsDoc.Windows) != 8 {
		t.Fatalf("/v1/windows reports %d/%d windows, want 8", windowsDoc.Spec.Count, len(windowsDoc.Windows))
	}

	getJSON := func(path string, wantCache string) map[string]interface{} {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		if got := resp.Header.Get("X-Cache"); wantCache != "" && got != wantCache {
			t.Fatalf("GET %s: X-Cache = %q, want %q", path, got, wantCache)
		}
		var m map[string]interface{}
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatalf("decode %s: %v", path, err)
		}
		return m
	}

	// topk: first query misses, the identical query hits the cache.
	topk := getJSON("/v1/topk?window=2&k=3", "miss")
	ranks := topk["ranks"].([]interface{})
	if len(ranks) != 3 {
		t.Fatalf("topk returned %d ranks, want 3", len(ranks))
	}
	prev := 1.1
	for _, r := range ranks {
		rank := r.(map[string]interface{})["rank"].(float64)
		if rank <= 0 || rank > prev {
			t.Fatalf("topk ranks not positive-descending: %v", ranks)
		}
		prev = rank
	}
	getJSON("/v1/topk?window=2&k=3", "hit")
	// A different spelling of the same query still hits: the key is
	// canonical, not the raw query string.
	getJSON("/v1/topk?k=3&window=2", "hit")

	traj := getJSON("/v1/vertex/0/trajectory", "miss")
	if int(traj["windows"].(float64)) != 8 || len(traj["ranks"].([]interface{})) != 8 {
		t.Fatalf("trajectory shape wrong: %v", traj)
	}

	movers := getJSON("/v1/movers?from=0&to=7&k=5", "miss")
	if len(movers["movers"].([]interface{})) == 0 {
		t.Fatal("movers returned no entries")
	}

	// Error statuses are structured JSON, not panics.
	for path, want := range map[string]int{
		"/v1/topk":                     http.StatusBadRequest,
		"/v1/topk?window=99":           http.StatusNotFound,
		"/v1/vertex/999999/trajectory": http.StatusNotFound,
		"/v1/movers?from=0&to=xyz":     http.StatusBadRequest,
		"/no/such/route":               http.StatusNotFound,
	} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET %s = %s, want %d", path, resp.Status, want)
		}
	}

	// The obs endpoints share the mux: /status reports serving, /metrics
	// exports the serve gauges, and / lists the endpoints.
	resp, err := http.Get(base + "/status")
	if err != nil {
		t.Fatalf("GET /status: %v", err)
	}
	var st obs.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode /status: %v", err)
	}
	if st.Phase != "serving" || st.WindowsDone != 8 {
		t.Fatalf("/status = %+v, want serving 8/8", st)
	}
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	var metrics strings.Builder
	if _, err := io.Copy(&metrics, resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !strings.Contains(metrics.String(), "pmpr_serve_cache_hits_total") ||
		!strings.Contains(metrics.String(), "pmpr_serve_store_windows 8") {
		t.Fatalf("/metrics missing serve gauges:\n%s", metrics.String())
	}
	for _, name := range []string{
		"pmpr_serve_shed_total", "pmpr_serve_timeout_total",
		"pmpr_serve_panics_total", "pmpr_serve_inflight",
	} {
		if !strings.Contains(metrics.String(), name) {
			t.Fatalf("/metrics missing guard metric %s:\n%s", name, metrics.String())
		}
	}
	index := getJSON("/", "")
	if index["service"] != "pmserve" {
		t.Fatalf("index = %v", index)
	}

	// Health probes: alive and ready while serving.
	if doc := getJSON("/healthz", ""); doc["status"] != "ok" {
		t.Fatalf("/healthz = %v, want ok", doc)
	}
	if doc := getJSON("/readyz", ""); doc["status"] != "serving" {
		t.Fatalf("/readyz = %v, want serving", doc)
	}

	// Degrade-to-stale: corrupt the series file on disk and SIGHUP. The
	// reload must fail without taking the daemon down — queries keep
	// answering from the published generation with X-Stale, and /readyz
	// reports "degraded" (still 200, so load balancers keep routing).
	good, err := os.ReadFile(pmrs)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(pmrs, []byte("PMRS\x01\x00\x00\x00garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd.Process.Signal(syscall.SIGHUP)
	waitReadyz := func(want string) map[string]interface{} {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for {
			resp, err := http.Get(base + "/readyz")
			if err != nil {
				t.Fatalf("GET /readyz: %v", err)
			}
			var doc map[string]interface{}
			err = json.NewDecoder(resp.Body).Decode(&doc)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("decode /readyz: %v", err)
			}
			if doc["status"] == want {
				return doc
			}
			if time.Now().After(deadline) {
				t.Fatalf("/readyz never reached %q, last: %v", want, doc)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	doc := waitReadyz("degraded")
	if reason, _ := doc["reason"].(string); !strings.Contains(reason, "reload failed") {
		t.Fatalf("degraded readyz reason = %v, want reload failure", doc)
	}
	resp, err = http.Get(base + "/v1/topk?window=2&k=3")
	if err != nil {
		t.Fatalf("GET topk while degraded: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded query = %s, want 200 stale-but-valid", resp.Status)
	}
	if resp.Header.Get("X-Stale") != "true" {
		t.Fatal("degraded query response missing X-Stale: true")
	}

	// Restore the file and SIGHUP again: the daemon recovers, the
	// generation advances, and X-Stale disappears.
	if err := os.WriteFile(pmrs, good, 0o644); err != nil {
		t.Fatal(err)
	}
	cmd.Process.Signal(syscall.SIGHUP)
	waitReadyz("serving")
	resp, err = http.Get(base + "/v1/topk?window=2&k=3")
	if err != nil {
		t.Fatalf("GET topk after recovery: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Stale") != "" {
		t.Fatalf("recovered query = %s X-Stale=%q, want clean 200", resp.Status, resp.Header.Get("X-Stale"))
	}

	cmd.Process.Signal(os.Interrupt)
	if err := cmd.Wait(); err != nil {
		t.Fatalf("pmserve exit: %v\n%s", err, <-outDone)
	}
}

// TestCLIServeDrain floods a live pmserve with concurrent clients (and
// one open SSE stream), then sends SIGTERM mid-flood: the daemon must
// exit 0 within -drain-timeout plus slack, every response must be a
// clean 200, a shed 503, or a connection error from the shutdown —
// never a partial body or a hang.
func TestCLIServeDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI e2e skipped in -short mode")
	}
	tmp := t.TempDir()
	ev := filepath.Join(tmp, "enron.ev")
	pmrs := filepath.Join(tmp, "ranks.pmrs")
	runTool(t, "./cmd/pmgen", "-dataset", "enron", "-scale", "0.02", "-seed", "3", "-o", ev, "-format", "binary")
	runTool(t, "./cmd/pmrank", "-in", ev, "-delta-days", "365", "-slide", "172800",
		"-max-windows", "8", "-out", pmrs)
	bin := filepath.Join(tmp, "pmserve")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/pmserve").CombinedOutput(); err != nil {
		t.Fatalf("go build pmserve: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, "-load", pmrs, "-addr", "127.0.0.1:0", "-drain-timeout", "5s")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatalf("start pmserve: %v", err)
	}
	killed := time.AfterFunc(90*time.Second, func() { cmd.Process.Kill() })
	defer killed.Stop()
	defer cmd.Process.Kill()

	addrRe := regexp.MustCompile(`serving on http://([^/]+)/`)
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if m := addrRe.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(60 * time.Second):
		t.Fatal("timed out waiting for the pmserve address")
	}
	base := "http://" + addr

	// Wait for the store, then open an SSE stream that would never end
	// on its own — Shutdown must force-close it at the drain deadline.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			ok := resp.StatusCode == http.StatusOK
			resp.Body.Close()
			if ok {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("pmserve never became ready")
		}
		time.Sleep(50 * time.Millisecond)
	}
	sseResp, err := http.Get(base + "/events")
	if err != nil {
		t.Fatalf("GET /events: %v", err)
	}
	defer sseResp.Body.Close()
	sseDone := make(chan struct{})
	go func() {
		defer close(sseDone)
		io.Copy(io.Discard, sseResp.Body)
	}()

	// Flood: 100 clients hammering a mix of cached and uncached queries.
	var (
		wg       sync.WaitGroup
		okCount  atomic.Int64
		shed     atomic.Int64
		connErrs atomic.Int64
		badMu    sync.Mutex
		bad      []string
	)
	stop := make(chan struct{})
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				url := fmt.Sprintf("%s/v1/topk?window=%d&k=%d", base, j%8, i%20+1)
				resp, err := http.Get(url)
				if err != nil {
					// The listener is closing under us; expected.
					connErrs.Add(1)
					return
				}
				_, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch {
				case rerr != nil:
					connErrs.Add(1)
					return
				case resp.StatusCode == http.StatusOK:
					okCount.Add(1)
				case resp.StatusCode == http.StatusServiceUnavailable:
					shed.Add(1)
					if resp.Header.Get("Retry-After") == "" {
						badMu.Lock()
						bad = append(bad, "503 without Retry-After")
						badMu.Unlock()
					}
				default:
					badMu.Lock()
					bad = append(bad, resp.Status)
					badMu.Unlock()
				}
			}
		}(i)
	}

	// Let the flood establish, then SIGTERM mid-flight.
	time.Sleep(300 * time.Millisecond)
	start := time.Now()
	cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("pmserve exit after SIGTERM: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("pmserve did not exit within -drain-timeout plus slack")
	}
	if elapsed := time.Since(start); elapsed > 12*time.Second {
		t.Fatalf("drain took %v, want within -drain-timeout plus slack", elapsed)
	}
	close(stop)
	wg.Wait()
	select {
	case <-sseDone:
		// The SSE stream was force-closed by the drain.
	case <-time.After(5 * time.Second):
		t.Fatal("SSE stream still open after process exit")
	}

	if len(bad) > 0 {
		t.Fatalf("flood saw %d malformed responses, e.g. %s", len(bad), bad[0])
	}
	if okCount.Load() == 0 {
		t.Fatal("flood completed zero successful requests before the drain")
	}
	t.Logf("drain flood: %d ok, %d shed, %d connection errors", okCount.Load(), shed.Load(), connErrs.Load())
}

func TestCLIErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI e2e skipped in -short mode")
	}
	cases := [][]string{
		{"./cmd/pmgen", "-dataset", "nope"},
		{"./cmd/pmrank", "-in", "/does/not/exist"},
		{"./cmd/pmbench", "-exp", "nope"},
	}
	for _, args := range cases {
		cmd := exec.Command("go", append([]string{"run"}, args...)...)
		if out, err := cmd.CombinedOutput(); err == nil {
			t.Errorf("%v unexpectedly succeeded:\n%s", args, out)
		}
	}

	// An unknown enum flag value is a usage error naming the valid
	// values, never a silent fallback to a different configuration;
	// removed flags and conflicting flags are usage errors too.
	ev := filepath.Join(t.TempDir(), "tiny.ev")
	runTool(t, "./cmd/pmgen", "-dataset", "enron", "-scale", "0.01", "-seed", "1", "-o", ev)
	usage := []struct {
		args []string
		want string
	}{
		{[]string{"./cmd/pmrank", "-in", ev, "-kernel", "spmm"}, "not defined: -kernel"},
		{[]string{"./cmd/pmrank", "-in", ev, "-mode", "bogus"}, "valid: nested, app, window"},
		{[]string{"./cmd/pmserve", "-solve", "-in", ev, "-partitioner", "bogus"}, "valid: auto, simple, static"},
		// -out cannot export what -discard-ranks drops; refused before
		// the solve.
		{[]string{"./cmd/pmrank", "-in", ev, "-out", filepath.Join(t.TempDir(), "x.pmrs"), "-discard-ranks"}, "-discard-ranks"},
	}
	for _, tc := range usage {
		out, err := exec.Command("go", append([]string{"run"}, tc.args...)...).CombinedOutput()
		if err == nil {
			t.Errorf("%v unexpectedly succeeded:\n%s", tc.args, out)
		}
		if !strings.Contains(string(out), tc.want) || !strings.Contains(string(out), "exit status 2") {
			t.Errorf("%v: want a usage error listing %q and exit status 2, got:\n%s", tc.args, tc.want, out)
		}
	}
}

// TestCLIQuarantinedExport quarantines window 2 (its first attempt and
// both retries fail, then the degrade attempt fails) and requires both
// commands that export the series, pmrank -out and pmserve -solve, to
// exit 1 with an error naming the window instead of panicking on its
// missing ranks.
func TestCLIQuarantinedExport(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI e2e skipped in -short mode")
	}
	tmp := t.TempDir()
	ev := filepath.Join(tmp, "ci.ev")
	pmrs := filepath.Join(tmp, "x.pmrs")
	runTool(t, "./cmd/pmgen", "-dataset", "enron", "-scale", "0.02", "-seed", "3", "-o", ev, "-format", "binary")
	solve := []string{"-in", ev, "-delta-days", "365", "-slide", "172800", "-max-windows", "8", "-workers", "1"}
	for _, args := range [][]string{
		append([]string{"./cmd/pmrank", "-out", pmrs}, solve...),
		append([]string{"./cmd/pmserve", "-solve", "-addr", "127.0.0.1:0"}, solve...),
	} {
		cmd := exec.Command("go", append([]string{"run"}, args...)...)
		cmd.Env = append(os.Environ(), "PMPR_FAULTPOINTS=core.solve.window:error:after=3,count=3;core.solve.degrade:error:count=1")
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Fatalf("%s exported a series with a quarantined window:\n%s", args[0], out)
		}
		if strings.Contains(string(out), "panic") || !strings.Contains(string(out), "windows [2] were quarantined") ||
			!strings.Contains(string(out), "exit status 1") {
			t.Fatalf("%s: want exit status 1 with an error naming window 2, got:\n%s", args[0], out)
		}
	}
	if _, err := os.Stat(pmrs); !os.IsNotExist(err) {
		t.Fatalf("pmrank left a partial series behind: %v", err)
	}
}
