package cliutil

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pmpr/internal/core"
	"pmpr/internal/events"
	"pmpr/internal/sched"
)

func TestEngineFlagDefaultsMatchConfig(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	ef := RegisterEngineFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	def := core.DefaultConfig()
	cfg := core.DefaultConfig()
	if err := ef.ApplyTo(&cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Mode != def.Mode || cfg.Partitioner != def.Partitioner {
		t.Fatalf("default engine flags diverge from DefaultConfig: %+v vs %+v", cfg, def)
	}
	if cfg.NumMultiWindows != 6 || cfg.Grain != 2 {
		t.Fatalf("unexpected defaults: mw=%d grain=%d", cfg.NumMultiWindows, cfg.Grain)
	}
	if !cfg.PartialInit || cfg.Directed {
		t.Fatalf("partial=%v directed=%v, want true/false", cfg.PartialInit, cfg.Directed)
	}
}

func TestEngineFlagsApplyTo(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	ef := RegisterEngineFlags(fs)
	args := []string{
		"-mode", "window", "-partitioner", "static",
		"-mw", "3", "-grain", "7", "-no-partial", "-directed",
		"-workers", "2",
	}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	if err := ef.ApplyTo(&cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Mode != core.WindowLevel || cfg.Partitioner != sched.Static {
		t.Fatalf("enum flags not applied: %+v", cfg)
	}
	if cfg.NumMultiWindows != 3 || cfg.Grain != 7 {
		t.Fatalf("numeric flags not applied: %+v", cfg)
	}
	if cfg.PartialInit || !cfg.Directed {
		t.Fatalf("bool flags not applied: partial=%v directed=%v", cfg.PartialInit, cfg.Directed)
	}
	if ef.Workers != 2 {
		t.Fatalf("workers = %d, want 2", ef.Workers)
	}
}

// TestPartitionerFlagRoundTrips checks that every partitioner renders
// (String) to a flag value its parser maps back to the same id, so a
// default rendered from core.DefaultConfig parses whichever id it
// names. (The default mode, nested, is covered by
// TestEngineFlagDefaultsMatchConfig.)
func TestPartitionerFlagRoundTrips(t *testing.T) {
	for _, p := range []sched.Partitioner{sched.Auto, sched.Simple, sched.Static} {
		if got, err := ParsePartitioner(p.String()); err != nil || got != p {
			t.Errorf("ParsePartitioner(%q) = %v, %v; want %v", p.String(), got, err, p)
		}
	}
}

// TestParsersRejectUnknown checks that an unknown enum flag value is
// an error naming the valid values, never a silent fallback to the
// default, and that ApplyTo surfaces it without touching the config.
func TestParsersRejectUnknown(t *testing.T) {
	cases := []struct {
		flag, value, valid string
	}{
		{"mode", "nonsense", "nested, app, window"},
		{"partitioner", "nonsense", "auto, simple, static"},
	}
	for _, tc := range cases {
		t.Run(tc.flag+"="+tc.value, func(t *testing.T) {
			fs := flag.NewFlagSet("t", flag.ContinueOnError)
			ef := RegisterEngineFlags(fs)
			if err := fs.Parse([]string{"-" + tc.flag, tc.value}); err != nil {
				t.Fatal(err)
			}
			cfg := core.DefaultConfig()
			cfg.NumMultiWindows = 99
			err := ef.ApplyTo(&cfg)
			if err == nil {
				t.Fatalf("-%s %s accepted", tc.flag, tc.value)
			}
			if !strings.Contains(err.Error(), tc.valid) {
				t.Fatalf("error %q does not list the valid values %q", err, tc.valid)
			}
			if cfg.NumMultiWindows != 99 {
				t.Fatalf("rejected flags still modified the config: %+v", cfg)
			}
		})
	}
}

// TestReadLogSniffsFormat round-trips the same log through the text and
// binary encoders and checks ReadLog picks the right decoder for each
// from the file contents alone.
func TestReadLogSniffsFormat(t *testing.T) {
	evs := []events.Event{{U: 0, V: 1, T: 10}, {U: 1, V: 2, T: 20}, {U: 2, V: 0, T: 30}}
	l, err := events.NewLog(evs, 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, enc func(f *os.File) error) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := enc(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	textPath := write("events.txt", func(f *os.File) error { return events.WriteText(f, l) })
	binPath := write("events.bin", func(f *os.File) error { return events.WriteBinary(f, l) })
	for _, path := range []string{textPath, binPath} {
		got, err := ReadLog(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if got.Len() != l.Len() || got.NumVertices() != l.NumVertices() {
			t.Fatalf("%s: decoded %d events / %d vertices, want %d / %d",
				path, got.Len(), got.NumVertices(), l.Len(), l.NumVertices())
		}
	}
}

func TestReadLogMissingFile(t *testing.T) {
	if _, err := ReadLog(filepath.Join(t.TempDir(), "absent.ev")); err == nil {
		t.Fatal("expected an error for a missing file")
	}
}
