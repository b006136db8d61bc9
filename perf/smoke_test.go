package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestMain lets the test binary stand in for the perf binary when the
// runs under test start their children ("<exe> child <job>").
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// declared reads the names BENCHMARK.json declares.
func declared(t *testing.T) (workloadNames, endToEnd, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name string }
	var decl struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	names := func(ns []named) []string {
		out := make([]string, len(ns))
		for i, n := range ns {
			out[i] = n.Name
		}
		sort.Strings(out)
		return out
	}
	return names(decl.Workloads), names(decl.EndToEnd), names(decl.PerLayer)
}

// tiny shrinks a workload's inputs, window count and nominal rate for a
// quick run.
func tiny(wl workload) workload {
	wl.Scale /= 5
	wl.Slide *= 4
	wl.Nominal /= 20
	return wl
}

// syncBuffer collects the children's stderr for a failure message.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func tinyRun(t *testing.T, wl workload, trace bool) report {
	t.Helper()
	var log syncBuffer
	opt := options{Exe: os.Args[0], Seed: 1, Seconds: 0.3, Trace: trace, Work: t.TempDir(), Log: &log}
	rep, err := runWorkload(context.Background(), tiny(wl), opt)
	if err != nil {
		t.Fatalf("%s (trace %v): %v\n%s", wl.Name, trace, err, log.String())
	}
	if testing.Verbose() {
		t.Log(log.String())
	}
	return rep
}

func metricNames(rep report) []string {
	out := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs every workload, untraced and traced, at a tiny scale
// with short steps, and holds the output to BENCHMARK.json.
func TestSmoke(t *testing.T) {
	wlNames, endToEnd, perLayer := declared(t)
	var have []string
	for _, wl := range workloads {
		have = append(have, wl.Name)
	}
	sort.Strings(have)
	if strings.Join(have, " ") != strings.Join(wlNames, " ") {
		t.Errorf("workloads %v, BENCHMARK.json declares %v", have, wlNames)
	}
	for _, wl := range workloads {
		wl := wl
		t.Run(wl.Name, func(t *testing.T) {
			t.Parallel()
			for _, trace := range []bool{false, true} {
				rep := tinyRun(t, wl, trace)
				want := endToEnd
				if trace {
					want = perLayer
				}
				if got := metricNames(rep); strings.Join(got, " ") != strings.Join(want, " ") {
					t.Errorf("trace %v: metrics %v, BENCHMARK.json declares %v", trace, got, want)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
					t.Errorf("trace %v: correct %v, %d of %d operations failed", trace, rep.Correct, rep.Failed, rep.Attempted)
				}
				if trace {
					continue
				}
				for n, m := range rep.Metrics {
					if m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", n, m.Value)
					}
				}
			}
		})
	}
}

// TestSmokeCountsFailures arms a fault on the serve path's response
// write and checks that the failed request is counted.
func TestSmokeCountsFailures(t *testing.T) {
	t.Setenv("PMPR_FAULTPOINTS", "serve.response.write:error")
	rep := tinyRun(t, workloads[0], false)
	if rep.Failed == 0 || rep.Correct {
		t.Errorf("with a write fault armed: correct %v, %d of %d failed; want a counted failure",
			rep.Correct, rep.Failed, rep.Attempted)
	}
}

func TestHostSteal(t *testing.T) {
	steal, total, err := hostSteal()
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 || steal > total {
		t.Errorf("steal %d of %d ticks: want a positive total that bounds the steal", steal, total)
	}
}
