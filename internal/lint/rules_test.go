package lint

import (
	"strings"
	"testing"
)

// Every rule gets at least one positive fixture (seeded violation is
// reported) and one negative fixture (conforming code stays silent).

func TestPanicRule(t *testing.T) {
	bad := `package core
func f(ok bool) {
	if !ok {
		panic("unreachable")
	}
}
`
	pkg := loadFixture(t, "pmpr/internal/core", "f.go", bad)
	if fs := runRule(t, "panic", pkg); len(fs) != 1 {
		t.Errorf("internal package: want 1 finding, got %v", fs)
	}
	// The rule covers library code only: a cmd/ package may panic.
	pkg = loadFixture(t, "pmpr/cmd/tool", "f.go", bad)
	if fs := runRule(t, "panic", pkg); len(fs) != 0 {
		t.Errorf("cmd package: want 0 findings, got %v", fs)
	}
	// A local function that shadows the builtin is not a panic.
	shadow := `package core
func panic(string) {}
func f() { panic("just a name") }
`
	pkg = loadFixture(t, "pmpr/internal/core", "shadow.go", shadow)
	if fs := runRule(t, "panic", pkg); len(fs) != 0 {
		t.Errorf("shadowed panic: want 0 findings, got %v", fs)
	}
}

func TestFloateqRule(t *testing.T) {
	bad := `package core
func eq(a, b float64) bool { return a == b }
func ne(a []float32, i, j int) bool { return a[i] != a[j] }
`
	pkg := loadFixture(t, "pmpr/internal/core", "f.go", bad)
	if fs := runRule(t, "floateq", pkg); len(fs) != 2 {
		t.Errorf("float compare: want 2 findings, got %v", fs)
	}

	good := `package core
func zeroSentinel(a float64) bool { return a == 0 }
func zeroFloat(a float64) bool { return a != 0.0 }
func ints(a, b int) bool { return a == b }
func tol(a, b float64) bool { d := a - b; return d < 1e-9 && d > -1e-9 }
func ordered(a, b float64) bool {
	if a > b {
		return true
	}
	return a < b
}
`
	pkg = loadFixture(t, "pmpr/internal/core", "g.go", good)
	if fs := runRule(t, "floateq", pkg); len(fs) != 0 {
		t.Errorf("conforming compares: want 0 findings, got %v", fs)
	}
}

func TestClosecheckRule(t *testing.T) {
	bad := `package events
type file struct{}
func (file) Close() error { return nil }
func (file) Flush() error { return nil }
func write(f file) {
	defer f.Close()
	f.Flush()
}
`
	pkg := loadFixture(t, "pmpr/internal/events", "io.go", bad)
	fs := runRule(t, "closecheck", pkg)
	if len(fs) != 2 {
		t.Fatalf("discarded close/flush: want 2 findings, got %v", fs)
	}
	if !strings.Contains(fs[0].Msg, "defer f.Close") {
		t.Errorf("finding should name the deferred call, got %q", fs[0].Msg)
	}

	// Out-of-scope packages are not checked.
	pkg = loadFixture(t, "pmpr/internal/core", "io.go", bad)
	if fs := runRule(t, "closecheck", pkg); len(fs) != 0 {
		t.Errorf("out-of-scope package: want 0 findings, got %v", fs)
	}

	good := `package events
type file struct{}
func (file) Close() error { return nil }
func (file) Flush() error { return nil }
type pool struct{}
func (pool) Close() {}
func write(f file, p pool) error {
	defer p.Close() // void Close: nothing to check
	if err := f.Flush(); err != nil {
		return err
	}
	return f.Close()
}
`
	pkg = loadFixture(t, "pmpr/internal/events", "ok.go", good)
	if fs := runRule(t, "closecheck", pkg); len(fs) != 0 {
		t.Errorf("checked closes: want 0 findings, got %v", fs)
	}
}

func TestDocRule(t *testing.T) {
	bad := `package core

func Exported() {}
type Thing struct{}
func (Thing) Method() {}
const Limit = 3
var Global int
`
	pkg := loadFixture(t, "pmpr/internal/core", "f.go", bad)
	fs := runRule(t, "doc", pkg)
	if len(fs) != 5 {
		t.Fatalf("undocumented exports: want 5 findings, got %d: %v", len(fs), fs)
	}

	good := `package core
// Exported does a documented thing.
func Exported() {}
// Thing is documented.
type Thing struct{}
// Method is documented.
func (Thing) Method() {}
// Limit bounds things.
const Limit = 3
// Grouped constants share the declaration doc.
const (
	A = 1
	B = 2
)
func unexported() {}
type hidden struct{}
func (hidden) Exposed() {} // method on unexported type: unreachable
`
	pkg = loadFixture(t, "pmpr/internal/core", "g.go", good)
	if fs := runRule(t, "doc", pkg); len(fs) != 0 {
		t.Errorf("documented exports: want 0 findings, got %v", fs)
	}

	// main packages are exempt (their surface is flags, not symbols).
	mainSrc := `package main
func Exported() {}
func main() {}
`
	pkg = loadFixture(t, "pmpr/cmd/tool", "main.go", mainSrc)
	if fs := runRule(t, "doc", pkg); len(fs) != 0 {
		t.Errorf("main package: want 0 findings, got %v", fs)
	}
}

func TestCtxFirstRulePosition(t *testing.T) {
	bad := `package core

import "context"

func solve(n int, ctx context.Context) error { _ = ctx; _ = n; return nil }

type runner interface {
	Run(name string, ctx context.Context) error
}

var handler = func(id int, ctx context.Context) { _ = id; _ = ctx }

type callback func(grain int, ctx context.Context)
`
	pkg := loadFixture(t, "pmpr/internal/core", "ctx_fixture.go", bad)
	if fs := runRule(t, "ctxfirst", pkg); len(fs) != 4 {
		t.Fatalf("want 4 findings (decl, interface method, literal, named func type), got %d: %v", len(fs), fs)
	}
	// ctx-first signatures (with or without more params) are fine, as
	// are signatures without a context at all.
	good := `package core

import "context"

func solve(ctx context.Context, n int) error { _ = ctx; _ = n; return nil }

type runner interface {
	Run(ctx context.Context) error
}

func pure(a, b int) int { return a + b }
`
	pkg = loadFixture(t, "pmpr/internal/core", "ctx_good.go", good)
	if fs := runRule(t, "ctxfirst", pkg); len(fs) != 0 {
		t.Errorf("conforming code: want 0 findings, got %v", fs)
	}
	// The position rule applies to commands too.
	pkg = loadFixture(t, "pmpr/cmd/tool", "ctx_fixture.go", bad)
	if fs := runRule(t, "ctxfirst", pkg); len(fs) != 4 {
		t.Errorf("cmd package position check: want 4 findings, got %v", fs)
	}
}

func TestCtxFirstRuleBackground(t *testing.T) {
	bad := `package core

import "context"

func run() error {
	ctx := context.Background()
	_ = ctx
	todo := context.TODO()
	_ = todo
	return nil
}
`
	pkg := loadFixture(t, "pmpr/internal/core", "bg_fixture.go", bad)
	if fs := runRule(t, "ctxfirst", pkg); len(fs) != 2 {
		t.Fatalf("internal package: want 2 findings (Background, TODO), got %d: %v", len(fs), fs)
	}
	// Commands own the process lifetime and may mint the root context.
	pkg = loadFixture(t, "pmpr/cmd/tool", "bg_fixture.go", bad)
	if fs := runRule(t, "ctxfirst", pkg); len(fs) != 0 {
		t.Errorf("cmd package: want 0 findings, got %v", fs)
	}
	// A local package named context is not the stdlib's.
	shadow := `package core

type fakeCtx struct{}

func Background() fakeCtx { return fakeCtx{} }

func run() { _ = Background() }
`
	pkg = loadFixture(t, "pmpr/internal/core", "shadow_ctx.go", shadow)
	if fs := runRule(t, "ctxfirst", pkg); len(fs) != 0 {
		t.Errorf("non-context Background: want 0 findings, got %v", fs)
	}
	// Suppression works like every other rule.
	suppressed := `package core

import "context"

func run() error {
	//pmvet:ignore ctxfirst -- detached audit goroutine outlives the request
	ctx := context.Background()
	_ = ctx
	return nil
}
`
	pkg = loadFixture(t, "pmpr/internal/core", "bg_suppressed.go", suppressed)
	if fs := runRule(t, "ctxfirst", pkg); len(fs) != 0 {
		t.Errorf("suppressed finding still reported: %v", fs)
	}
}

func TestRecovercheckRule(t *testing.T) {
	bad := `package core
func a() {
	defer func() {
		recover()
	}()
}
func b() {
	defer func() {
		_ = recover()
	}()
}
func c() {
	defer recover()
}
`
	pkg := loadFixture(t, "pmpr/internal/core", "rec.go", bad)
	fs := runRule(t, "recovercheck", pkg)
	if len(fs) != 3 {
		t.Fatalf("want 3 findings (bare, blank, defer), got %d: %v", len(fs), fs)
	}

	// Binding and converting the recovered value conforms.
	good := `package core
import "fmt"
func f() (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("recovered: %v", rec)
		}
	}()
	return nil
}
`
	pkg = loadFixture(t, "pmpr/internal/core", "rec_good.go", good)
	if fs := runRule(t, "recovercheck", pkg); len(fs) != 0 {
		t.Errorf("conforming recover: want 0 findings, got %v", fs)
	}

	// A local function shadowing the builtin is not a recover.
	shadow := `package core
func recover() int { return 0 }
func g() { recover() }
`
	pkg = loadFixture(t, "pmpr/internal/core", "rec_shadow.go", shadow)
	if fs := runRule(t, "recovercheck", pkg); len(fs) != 0 {
		t.Errorf("shadowed recover: want 0 findings, got %v", fs)
	}

	// Suppression with a rationale works like every other rule.
	suppressed := `package core
func h() {
	defer func() {
		//pmvet:ignore recovercheck -- probe: any panic here is benign
		recover()
	}()
}
`
	pkg = loadFixture(t, "pmpr/internal/core", "rec_suppressed.go", suppressed)
	if fs := runRule(t, "recovercheck", pkg); len(fs) != 0 {
		t.Errorf("suppressed finding still reported: %v", fs)
	}
}

// A break inside a switch nested in a loop exits the switch, not the
// loop, so the lock is balanced on every real path.
func TestProbeLockbalanceSwitchBreakInLoop(t *testing.T) {
	src := `package p

import "sync"

type s struct{ mu sync.Mutex }

func (x *s) f(vals []int) {
	for _, v := range vals {
		x.mu.Lock()
		switch v {
		case 1:
			break
		case 2:
		}
		x.mu.Unlock()
	}
}
`
	pkg := loadFixture(t, "pmpr/internal/p", "p.go", src)
	fs := runRule(t, "lockbalance", pkg)
	if len(fs) != 0 {
		t.Errorf("balanced lock with switch-break: want 0 findings, got %v", fs)
	}
}

// Infinite for loop; switch-break taken with the lock held; the code
// after the switch unlocks before the real exit (return). Every real
// path is balanced, but if switch-break is modeled as a loop break, the
// post-loop state wrongly carries the lock.
func TestProbeLockbalanceSwitchBreakInfiniteLoop(t *testing.T) {
	src := `package p

import "sync"

type s struct{ mu sync.Mutex }

func (x *s) f(next func() int) {
	for {
		v := next()
		x.mu.Lock()
		switch v {
		case 1:
			x.mu.Unlock()
			break
		case 2:
			x.mu.Unlock()
		default:
			x.mu.Unlock()
			return
		}
	}
}
`
	pkg := loadFixture(t, "pmpr/internal/p", "p.go", src)
	fs := runRule(t, "lockbalance", pkg)
	if len(fs) != 0 {
		t.Errorf("balanced: want 0 findings, got %v", fs)
	}
}
