package main

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pmpr/internal/checkpoint"
	"pmpr/internal/core"
	"pmpr/internal/events"
	"pmpr/internal/fault"
	"pmpr/internal/obs"
)

// writeJournal writes lines to a temporary JSONL file and returns its
// path.
func writeJournal(t *testing.T, lines ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.jsonl")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestValidateJournalRejects(t *testing.T) {
	const (
		start = `{"seq":1,"time_unix_nano":5,"type":"run_start","windows":2,"mode":"app","workers":0}`
		done  = `{"seq":2,"time_unix_nano":6,"type":"window_done","window":0,"worker":-1,"status":"ok","iterations":7,"residual":3e-09,"converged":true,"seconds":0.25}`
	)
	for _, tc := range []struct {
		name  string
		lines []string
		ok    bool
	}{
		{"conforming", []string{start, done}, true},
		{"missing field", []string{start, strings.Replace(done, `,"residual":3e-09`, "", 1)}, false},
		{"extra field", []string{start, strings.Replace(done, `"seconds":0.25`, `"seconds":0.25,"stage":"solve"`, 1)}, false},
		{"field of another type", []string{strings.Replace(start, `"workers":0`, `"workers":0,"err":"x"`, 1)}, false},
		{"converged false spelled out", []string{start, strings.Replace(done, `"converged":true`, `"converged":false`, 1)}, false},
		{"unknown type", []string{start, `{"seq":2,"time_unix_nano":6,"type":"window_gone"}`}, false},
		{"repeated seq", []string{start, strings.Replace(done, `"seq":2`, `"seq":1`, 1)}, false},
		{"not JSON", []string{start, `{"seq":2,`}, false},
		{"empty file", []string{""}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := validateJournal(writeJournal(t, tc.lines...)) == 0; got != tc.ok {
				t.Fatalf("validateJournal accepted=%v, want %v", got, tc.ok)
			}
		})
	}
}

// TestValidateJournalAcceptsEngineRuns validates the journal of a real
// engine run, with a checkpoint store attached and one injected panic,
// so retry (panicked, err) and checkpoint_write events are in the file
// next to the lifecycle and window events. The subtest is named after
// the engine's one kernel, SpMV.
func TestValidateJournalAcceptsEngineRuns(t *testing.T) {
	defer fault.Reset()
	rng := rand.New(rand.NewSource(3))
	evs := make([]events.Event, 600)
	for i := range evs {
		evs[i] = events.Event{U: int32(rng.Intn(25)), V: int32(rng.Intn(25)), T: int64(i)}
	}
	l, err := events.NewLog(evs, 25)
	if err != nil {
		t.Fatal(err)
	}
	spec := events.WindowSpec{T0: 0, Delta: 160, Slide: 90, Count: 6}
	t.Run("spmv", func(t *testing.T) {
		fault.Reset()
		var buf bytes.Buffer
		cfg := core.DefaultConfig()
		cfg.Mode = core.AppLevel
		cfg.Journal = obs.NewJournal(0)
		cfg.Journal.SetSink(&buf)
		eng, err := core.NewEngine(l, spec, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		store, err := checkpoint.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.SetCheckpoint(store, false); err != nil {
			t.Fatal(err)
		}
		defer fault.Arm(fault.Rule{Point: core.PointSolveWindow, Mode: fault.ModePanic, Count: 1})()
		if _, err := eng.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := cfg.Journal.CloseSink(); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{`"type":"retry"`, `"panicked":true`, `"type":"checkpoint_write"`, `"converged":true`} {
			if !strings.Contains(buf.String(), want) {
				t.Fatalf("journal has no %s line; the run exercised too little:\n%s", want, buf.String())
			}
		}
		path := filepath.Join(t.TempDir(), "run.jsonl")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if code := validateJournal(path); code != 0 {
			t.Fatalf("validateJournal rejected a real journal:\n%s", buf.String())
		}
	})
}
