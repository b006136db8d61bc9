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

func TestHotpathRuleTransitiveHelper(t *testing.T) {
	// The pre-callgraph rule only looked inside the loop-body literal,
	// so moving the append one call away defeated it. The transitive
	// rule follows the edge and reports the chain.
	src := `package core

func loop(n int, body func(lo, hi int)) { body(0, n) }

func gather(dst []int, x int) []int { return append(dst, x) }

func kernel(xs []int) {
	var out []int
	loop(len(xs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out = gather(out, xs[i])
		}
	})
	_ = out
}
`
	pkg := loadFixture(t, "pmpr/internal/core", "kernel_helper_fixture.go", src)
	fs := runRule(t, "hotpath", pkg)
	if len(fs) != 1 {
		t.Fatalf("append behind a helper: want 1 finding, got %v", fs)
	}
	if !strings.Contains(fs[0].Msg, "gather") {
		t.Errorf("finding %q should show the chain through the helper", fs[0].Msg)
	}
	if fs[0].Pos.Line != 5 {
		t.Errorf("finding should point at the append inside the helper (line 5), got line %d", fs[0].Pos.Line)
	}
}

// kernelFixture defines a miniature kernel world: spmmKernel carries
// the name the hotpath rule roots, so its methods are entries. Init may
// allocate but not block, Iterate/Residual may do neither.
const kernelFixture = `package core

type spmmKernel struct{ buf []float64 }

func (k *spmmKernel) Init(ch chan int) {
	k.buf = make([]float64, 8)
	<-ch
}

func (k *spmmKernel) Iterate() {
	k.buf = append(k.buf, 1)
}

func (k *spmmKernel) Residual() float64 { return 0 }
`

func TestHotpathRuleRegisteredKernel(t *testing.T) {
	pkg := loadFixture(t, "pmpr/internal/core", "kernel_reg_fixture.go", kernelFixture)
	fs := runRule(t, "hotpath", pkg)
	if len(fs) != 2 {
		t.Fatalf("want 2 findings (Init block, Iterate alloc), got %v", fs)
	}
	var sawInitBlock, sawIterateAlloc bool
	for _, f := range fs {
		switch {
		case strings.Contains(f.Msg, "spmmKernel.Init") && strings.Contains(f.Msg, "block/chan"):
			sawInitBlock = true
		case strings.Contains(f.Msg, "spmmKernel.Iterate") && strings.Contains(f.Msg, "alloc/append"):
			sawIterateAlloc = true
		case strings.Contains(f.Msg, "spmmKernel.Init") && strings.Contains(f.Msg, "alloc/"):
			t.Errorf("Init is allowed to allocate by the kernel contract, got %v", f)
		default:
			t.Errorf("unexpected finding %v", f)
		}
	}
	if !sawInitBlock || !sawIterateAlloc {
		t.Errorf("want Init-block and Iterate-alloc findings, got %v", fs)
	}
}

func TestHotpathEntryNames(t *testing.T) {
	pkg := loadFixture(t, "pmpr/internal/core", "kernel_reg2_fixture.go", kernelFixture)
	names := HotpathEntryNames(NewModule([]*Package{pkg}))
	for _, want := range []string{"core.spmmKernel.Init", "core.spmmKernel.Iterate", "core.spmmKernel.Residual"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("entry %q missing from HotpathEntryNames %v", want, names)
		}
	}
}
