package lint

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

// callgraphFixture is a miniature of the engine's dispatch shapes: an
// interface devirtualized to its implementations (Kernel-style), a
// function value bound to a struct field (sched.Body-style), and a
// goroutine launch. The golden file pins all three edge kinds; the go
// statement's edge carries the kind its call resolves to.
const callgraphFixture = `package fixture

type Kernel interface{ Step() }

type fast struct{}

func (fast) Step() { helper() }

type slow struct{}

func (slow) Step() {}

func helper() {}

type batch struct{ body func() }

func drive(k Kernel) {
	k.Step()
	b := batch{body: helper}
	b.body()
	go helper()
}
`

// TestCallGraphGolden pins the -graph output shape and the
// devirtualization behavior: the interface call resolves to every
// module implementation, the field-bound function value resolves
// through the flow analysis, and the go statement resolves like any
// other call.
func TestCallGraphGolden(t *testing.T) {
	pkg := loadFixture(t, "pmpr/internal/fixture", "graph_fixture.go", callgraphFixture)
	g := BuildCallGraph([]*Package{pkg})
	var buf bytes.Buffer
	if err := g.WriteGraph(&buf); err != nil {
		t.Fatalf("WriteGraph: %v", err)
	}
	got := buf.String()

	golden := filepath.Join("testdata", "callgraph.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
	}
	wantBytes, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if want := string(wantBytes); got != want {
		t.Errorf("call graph drifted from golden (run with -update to accept):\n--- want ---\n%s--- got ---\n%s", want, got)
	}
}

// TestReachableFromChains checks the breadth-first chains that hotpath
// findings print: every reachable node carries its path from the entry.
func TestReachableFromChains(t *testing.T) {
	pkg := loadFixture(t, "pmpr/internal/fixture", "graph_chain_fixture.go", callgraphFixture)
	g := BuildCallGraph([]*Package{pkg})
	var drive *FuncNode
	for _, n := range g.Nodes {
		if n.Name == "pmpr/internal/fixture.drive" {
			drive = n
		}
	}
	if drive == nil {
		t.Fatal("drive node not found")
	}
	reach := g.ReachableFrom(drive, nil)
	var helperChain []string
	for n, chain := range reach {
		if n.Name == "pmpr/internal/fixture.helper" {
			helperChain = chain
		}
	}
	if helperChain == nil {
		t.Fatalf("helper not reachable from drive; reachable set: %v", reach)
	}
	joined := strings.Join(helperChain, " → ")
	if !strings.HasPrefix(joined, "fixture.drive") || !strings.HasSuffix(joined, "fixture.helper") {
		t.Errorf("chain %q should run from drive to helper", joined)
	}

	// Skipping every Step implementation severs the devirtualized leg
	// but helper stays reachable through the direct edges.
	reach = g.ReachableFrom(drive, func(n *FuncNode) bool {
		return strings.HasSuffix(n.Name, ".Step")
	})
	for n := range reach {
		if strings.HasSuffix(n.Name, ".Step") {
			t.Errorf("skipped node %s still in reachable set", n.Name)
		}
	}
	found := false
	for n := range reach {
		if n.Name == "pmpr/internal/fixture.helper" {
			found = true
		}
	}
	if !found {
		t.Error("helper should stay reachable through the direct call edges")
	}
}
