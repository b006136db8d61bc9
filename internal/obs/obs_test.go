package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCollectBuildInfo(t *testing.T) {
	bi := CollectBuildInfo()
	if bi.GoVersion == "" || bi.GOOS == "" || bi.GOARCH == "" {
		t.Fatalf("missing runtime fields: %+v", bi)
	}
	if bi.GOMAXPROCS < 1 || bi.NumCPU < 1 {
		t.Fatalf("implausible CPU counts: %+v", bi)
	}
}

func TestTraceRoundTrip(t *testing.T) {
	tr := NewTrace()
	tr.ProcessName("pmrank")
	tr.ThreadName(1, "worker 0")
	start := time.Now()
	tr.Complete("window 3", "solve", 1, start, 5*time.Millisecond,
		map[string]interface{}{"iterations": 12})
	tr.ThreadName(2, "worker 1")
	tr.SetMeta("dataset", "enron")
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}

	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	var obj struct {
		TraceEvents []TraceEvent           `json:"traceEvents"`
		OtherData   map[string]interface{} `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &obj); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(obj.TraceEvents) != 4 {
		t.Fatalf("got %d events, want 4", len(obj.TraceEvents))
	}
	var span *TraceEvent
	for i := range obj.TraceEvents {
		if obj.TraceEvents[i].Ph == "X" {
			span = &obj.TraceEvents[i]
		}
	}
	if span == nil {
		t.Fatal("no complete event in trace")
	}
	if span.Name != "window 3" || span.TID != 1 || span.Dur <= 0 {
		t.Fatalf("bad span: %+v", span)
	}
	if obj.OtherData["dataset"] != "enron" {
		t.Fatalf("metadata lost: %v", obj.OtherData)
	}
}

func TestTraceWriteFile(t *testing.T) {
	tr := NewTrace()
	tr.Complete("w", "c", 0, time.Now(), time.Millisecond, nil)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
}

func TestTraceConcurrent(t *testing.T) {
	tr := NewTrace()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Complete(fmt.Sprintf("e%d", i), "c", g, time.Now(), time.Microsecond, nil)
			}
		}(g)
	}
	wg.Wait()
	if tr.Len() != 800 {
		t.Fatalf("Len = %d, want 800", tr.Len())
	}
}

func TestRegistry(t *testing.T) {
	reg := NewRegistry()
	var stale, c Counter
	stale.Add(9)
	reg.RegisterCounter("pmpr_windows_solved_total", "windows solved", &stale)
	// Re-registering a name replaces the earlier counter.
	reg.RegisterCounter("pmpr_windows_solved_total", "windows solved", &c)
	c.Add(3)
	c.Inc()
	if c.Value() != 4 {
		t.Fatalf("counter = %d, want 4", c.Value())
	}
	reg.Gauge("pmpr_load_imbalance", "max/mean busy", func() float64 { return 1.5 })

	var buf bytes.Buffer
	reg.WriteProm(&buf)
	text := buf.String()
	for _, want := range []string{
		"# TYPE pmpr_windows_solved_total counter",
		"pmpr_windows_solved_total 4",
		"# TYPE pmpr_load_imbalance gauge",
		"pmpr_load_imbalance 1.5",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(b)
}

func TestServeEndpoints(t *testing.T) {
	reg := NewRegistry()
	var c Counter
	c.Add(7)
	reg.RegisterCounter("pmpr_test_total", "test counter", &c)
	srv, err := ServeHandler("127.0.0.1:0", NewMux(reg))
	if err != nil {
		t.Fatalf("ServeHandler: %v", err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr().String()

	if code, body := get(t, base+"/metrics"); code != 200 || !strings.Contains(body, "pmpr_test_total 7") {
		t.Fatalf("/metrics: code=%d body=%s", code, body)
	}

	if code, _ := get(t, base+"/debug/pprof/"); code != 200 {
		t.Fatalf("/debug/pprof/: code=%d", code)
	}
	if testing.Short() {
		t.Skip("skipping 1s CPU profile in -short mode")
	}
	if code, _ := get(t, base+"/debug/pprof/profile?seconds=1"); code != 200 {
		t.Fatalf("/debug/pprof/profile: code=%d", code)
	}
}
