package core

import (
	"context"

	"strings"
	"testing"

	"pmpr/internal/events"
	"pmpr/internal/sched"
	"pmpr/internal/tcsr"
)

// TestRunWithValidation is the end-to-end invariant gate: a multi-window
// series computed with Config.Validate on must pass every structural
// check (TCSR layout, window coverage, per-window rank stochasticity)
// for each parallel mode.
func TestRunWithValidation(t *testing.T) {
	l := randomLog(t, 11, 40, 400, 1000)
	spec := events.WindowSpec{T0: 0, Delta: 200, Slide: 90, Count: 10}
	pool := sched.NewPool(3)
	defer pool.Close()

	for _, directed := range []bool{true, false} {
		log := l
		if !directed {
			log = l.Symmetrize()
		}
		for _, mode := range []ParallelMode{AppLevel, WindowLevel, Nested} {
			cfg := DefaultConfig()
			cfg.Mode = mode
			cfg.NumMultiWindows = 3
			cfg.Directed = directed
			cfg.Validate = true
			eng, err := NewEngine(log, spec, cfg, pool)
			if err != nil {
				t.Fatalf("%v directed=%v: NewEngine: %v", mode, directed, err)
			}
			s, err := eng.Run(context.Background())
			if err != nil {
				t.Fatalf("%v directed=%v: Run: %v", mode, directed, err)
			}
			if len(s.Results) != spec.Count {
				t.Fatalf("%v: %d results, want %d", mode, len(s.Results), spec.Count)
			}
		}
	}
}

// TestRunWithValidationDiscardRanks exercises the ordering constraint:
// ranks must be validated before DiscardRanks drops them.
func TestRunWithValidationDiscardRanks(t *testing.T) {
	l := randomLog(t, 12, 30, 200, 600)
	spec := events.WindowSpec{T0: 0, Delta: 150, Slide: 80, Count: 6}
	cfg := DefaultConfig()
	cfg.NumMultiWindows = 2
	cfg.Directed = true
	cfg.Validate = true
	cfg.DiscardRanks = true
	eng, err := NewEngine(l, spec, cfg, nil)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	s, err := eng.Run(context.Background())
	if err != nil {
		t.Fatalf("Run with DiscardRanks: %v", err)
	}
	if s.Window(0).HasRanks() {
		t.Fatal("ranks retained despite DiscardRanks")
	}
}

// TestNewEngineRejectsCorruptTemporal verifies the construction-time
// half of the hook: a representation corrupted after build must be
// rejected by NewEngineFromTemporal when Validate is on, and accepted
// (garbage in, garbage out) when it is off.
func TestNewEngineRejectsCorruptTemporal(t *testing.T) {
	l := randomLog(t, 13, 20, 100, 400)
	spec := events.WindowSpec{T0: 0, Delta: 120, Slide: 70, Count: 5}
	tg, err := tcsr.Build(l, spec, 2, true)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	mw := tg.MWs[0]
	mw.OutRow[1], mw.OutRow[2] = mw.OutRow[2], mw.OutRow[1]

	cfg := DefaultConfig()
	cfg.Directed = true
	if _, err := NewEngineFromTemporal(tg, cfg, nil); err != nil {
		t.Fatalf("Validate off must not reject: %v", err)
	}
	cfg.Validate = true
	_, err = NewEngineFromTemporal(tg, cfg, nil)
	if err == nil {
		t.Fatal("corrupted temporal CSR accepted with Validate on")
	}
	if !strings.Contains(err.Error(), "invariant") {
		t.Fatalf("unexpected rejection: %v", err)
	}
}

// TestConfigCheck covers the renamed parameter checker.
func TestConfigCheck(t *testing.T) {
	if err := DefaultConfig().Check(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	bad := DefaultConfig()
	bad.NumMultiWindows = 0
	if err := bad.Check(); err == nil {
		t.Error("NumMultiWindows=0 accepted")
	}
	bad = DefaultConfig()
	bad.Mode = ParallelMode(99)
	if err := bad.Check(); err == nil {
		t.Error("unknown mode accepted")
	}
}
