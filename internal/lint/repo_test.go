package lint

import "testing"

// loadRepo loads and type-checks the whole module from source for the
// in-process repo gates.
func loadRepo(t *testing.T) []*Package {
	t.Helper()
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	if loader.Module() != "pmpr" {
		t.Fatalf("unexpected module %q", loader.Module())
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatalf("Load ./...: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("suspiciously few packages loaded: %d", len(pkgs))
	}
	return pkgs
}

// TestRepoLintsClean is the in-process version of the CI pmvet gate:
// the whole module must produce zero findings with every rule enabled,
// and — the strict tier — zero stale suppressions. Intentional
// exemptions live as //pmvet:ignore comments in the code, never in the
// tool.
func TestRepoLintsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module from source")
	}
	rep := Analyze(NewModule(loadRepo(t)), Analyzers())
	for _, f := range rep.Findings {
		t.Errorf("unexpected finding: %s", f)
	}
	for _, f := range rep.Stale {
		t.Errorf("stale suppression (prune the directive): %s", f)
	}
}

// TestRepoHotpathCoversKernels proves that the transitive hotpath rule
// roots the engine's kernel in the real module: the Init, Iterate and
// Residual methods of the named kernel type must all be entries.
// Renaming the type or one of the methods without updating the rule's
// root fails here, instead of silently dropping the kernel's coverage.
func TestRepoHotpathCoversKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module from source")
	}
	entries := HotpathEntryNames(NewModule(loadRepo(t)))
	have := make(map[string]bool, len(entries))
	for _, e := range entries {
		have[e] = true
	}
	for _, method := range []string{"Init", "Iterate", "Residual"} {
		if name := "core." + kernelType + "." + method; !have[name] {
			t.Errorf("%s not rooted by hotpath; entries: %v", name, entries)
		}
	}
}

// TestLoaderSinglePackage exercises non-recursive pattern resolution.
func TestLoaderSinglePackage(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := loader.Load("./internal/events")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "pmpr/internal/events" {
		t.Fatalf("want exactly pmpr/internal/events, got %v", pkgs)
	}
	if len(pkgs[0].Files) == 0 || pkgs[0].Types == nil {
		t.Fatalf("package not fully loaded: %+v", pkgs[0])
	}
	if _, err := loader.Load("./no/such/dir"); err == nil {
		t.Error("want error for unknown pattern")
	}
}
