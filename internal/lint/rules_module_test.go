package lint

import (
	"strings"
	"testing"
)

// analyzeFixture runs the named rules over one fixture package and
// returns the full report (findings and stale suppressions).
func analyzeFixture(t *testing.T, rules string, pkg *Package) *Report {
	t.Helper()
	as, err := ByName(rules)
	if err != nil {
		t.Fatalf("ByName(%q): %v", rules, err)
	}
	return Analyze(NewModule([]*Package{pkg}), as)
}

func TestLockbalanceRule(t *testing.T) {
	// Early return while the mutex is held: the classic leak.
	leak := `package obs

import "sync"

type store struct {
	mu sync.Mutex
	n  int
}

func (s *store) get(fail bool) int {
	s.mu.Lock()
	if fail {
		return -1
	}
	s.mu.Unlock()
	return s.n
}
`
	pkg := loadFixture(t, "pmpr/internal/obs", "store.go", leak)
	fs := runRule(t, "lockbalance", pkg)
	if len(fs) != 1 {
		t.Fatalf("early-return leak: want 1 finding, got %v", fs)
	}
	if !strings.Contains(fs[0].Msg, "still held") {
		t.Errorf("finding %q should say the lock is still held", fs[0].Msg)
	}
	if fs[0].Pos.Line != 13 {
		t.Errorf("finding should point at the leaking return (line 13), got line %d", fs[0].Pos.Line)
	}

	// The three balanced disciplines the repo actually uses: deferred
	// unlock, branch-local unlock before every return, and the worker
	// lock/unlock cycle inside an infinite loop.
	balanced := `package obs

import "sync"

type store struct {
	mu sync.Mutex
	n  int
}

func (s *store) deferred() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

func (s *store) branchy(fail bool) int {
	s.mu.Lock()
	if fail {
		s.mu.Unlock()
		return -1
	}
	n := s.n
	s.mu.Unlock()
	return n
}

func (s *store) worker(stop *bool) {
	for {
		s.mu.Lock()
		if *stop {
			s.mu.Unlock()
			return
		}
		s.n++
		s.mu.Unlock()
	}
}
`
	pkg = loadFixture(t, "pmpr/internal/obs", "store_ok.go", balanced)
	if fs := runRule(t, "lockbalance", pkg); len(fs) != 0 {
		t.Errorf("balanced disciplines: want 0 findings, got %v", fs)
	}
}

func TestEventexhaustRule(t *testing.T) {
	// A switch over EventType with no default must cover every
	// constant; EvC is missing here.
	missing := `package obs

type EventType uint8

const (
	EvA EventType = iota
	EvB
	EvC
)

func name(t EventType) string {
	switch t {
	case EvA:
		return "a"
	case EvB:
		return "b"
	}
	return "?"
}
`
	pkg := loadFixture(t, "pmpr/internal/obs", "events.go", missing)
	fs := runRule(t, "eventexhaust", pkg)
	if len(fs) != 1 {
		t.Fatalf("missing case: want 1 finding, got %v", fs)
	}
	if !strings.Contains(fs[0].Msg, "EvC") {
		t.Errorf("finding %q should name the missing constant", fs[0].Msg)
	}

	// A default clause is an explicit decision and exempts the switch.
	withDefault := `package obs

type EventType uint8

const (
	EvA EventType = iota
	EvB
	EvC
)

func name(t EventType) string {
	switch t {
	case EvA:
		return "a"
	default:
		return "?"
	}
}
`
	pkg = loadFixture(t, "pmpr/internal/obs", "events_default.go", withDefault)
	if fs := runRule(t, "eventexhaust", pkg); len(fs) != 0 {
		t.Errorf("default clause: want 0 findings, got %v", fs)
	}

	// Map literals keyed by EventType (e.g. a per-type field table)
	// need an entry per constant.
	mapMissing := `package obs

type EventType uint8

const (
	EvA EventType = iota
	EvB
	EvC
)

var names = map[EventType]string{
	EvA: "a",
	EvB: "b",
}
`
	pkg = loadFixture(t, "pmpr/internal/obs", "events_map.go", mapMissing)
	fs = runRule(t, "eventexhaust", pkg)
	if len(fs) != 1 {
		t.Fatalf("missing map key: want 1 finding, got %v", fs)
	}
	if !strings.Contains(fs[0].Msg, "EvC") {
		t.Errorf("finding %q should name the missing key", fs[0].Msg)
	}

	// Complete coverage in both shapes is clean.
	complete := `package obs

type EventType uint8

const (
	EvA EventType = iota
	EvB
	EvC
)

var names = map[EventType]string{
	EvA: "a",
	EvB: "b",
	EvC: "c",
}

func name(t EventType) string {
	switch t {
	case EvA, EvB:
		return "ab"
	case EvC:
		return "c"
	}
	return "?"
}
`
	pkg = loadFixture(t, "pmpr/internal/obs", "events_full.go", complete)
	if fs := runRule(t, "eventexhaust", pkg); len(fs) != 0 {
		t.Errorf("complete coverage: want 0 findings, got %v", fs)
	}
}

func TestStaleIgnoreAudit(t *testing.T) {
	// A directive that no longer suppresses anything is reported so
	// suppressions cannot outlive their finding.
	stale := `package fake

func ok() int { return 1 } //pmvet:ignore panic -- nothing panics here anymore
`
	pkg := loadFixture(t, "pmpr/internal/fake", "stale.go", stale)
	rep := analyzeFixture(t, "panic", pkg)
	if len(rep.Findings) != 0 {
		t.Errorf("want 0 findings, got %v", rep.Findings)
	}
	if len(rep.Stale) != 1 {
		t.Fatalf("want 1 stale directive, got %v", rep.Stale)
	}
	if rep.Stale[0].Rule != StaleRule {
		t.Errorf("stale finding rule = %q, want %q", rep.Stale[0].Rule, StaleRule)
	}

	// Running a rule subset must not flag suppressions that belong to
	// rules outside the subset — they had no chance to be used.
	rep = analyzeFixture(t, "floateq", pkg)
	if len(rep.Stale) != 0 {
		t.Errorf("subset run: want 0 stale directives, got %v", rep.Stale)
	}

	// A directive naming no pmvet rule (a deleted rule, a typo) can
	// never suppress anything: it is stale whatever -rules selects.
	unknown := `package fake

func a() int { return 1 } //pmvet:ignore retired -- rule no longer exists

func b() int { return 2 } //pmvet:ignore closechek -- misspelled rule
`
	pkg = loadFixture(t, "pmpr/internal/fake", "unknown.go", unknown)
	for _, rules := range []string{"", "panic", "floateq"} {
		rep = analyzeFixture(t, rules, pkg)
		if len(rep.Stale) != 2 {
			t.Fatalf("rules %q: want both unknown-rule directives stale, got %v", rules, rep.Stale)
		}
		for i, want := range []string{"retired", "closechek"} {
			if f := rep.Stale[i]; f.Rule != StaleRule || !strings.Contains(f.Msg, want) {
				t.Errorf("rules %q: stale[%d] = %v, want a %s finding naming %q", rules, i, f, StaleRule, want)
			}
		}
	}

	// A directive that actually suppresses a finding is not stale.
	used := `package fake

func boom() { panic("x") } //pmvet:ignore panic -- fixture rationale
`
	pkg = loadFixture(t, "pmpr/internal/fake", "used.go", used)
	rep = analyzeFixture(t, "panic", pkg)
	if len(rep.Findings) != 0 || len(rep.Stale) != 0 {
		t.Errorf("used directive: want no findings and no stale, got %v / %v", rep.Findings, rep.Stale)
	}
}
