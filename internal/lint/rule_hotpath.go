package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// hotpathRule proves the engine's central performance invariant
// transitively: nothing reachable from a kernel's hot methods
// allocates or blocks. The old version of this rule was syntactic — it
// looked inside the loop-body literals at the call site
// and could be defeated by one level of indirection (move the append
// into a helper and the rule went quiet). This version walks the
// module call graph from two families of entry points:
//
//   - The engine's one kernel type, internal/core's spmmKernel (rooted
//     by name): Iterate and Residual may neither allocate nor block
//     anywhere in their transitive call tree; Init may allocate (the
//     documented kernel contract binds its pass closures once per
//     batch there) but must not block.
//   - Every closure handed to ParallelFor/ParallelForCtx anywhere in
//     the module: inside internal/core the full no-alloc/no-block ban
//     applies; elsewhere
//     the ban is the classic hot-loop set — fmt/log-style calls,
//     append, map allocation, string concatenation — so analysis
//     loop bodies that legitimately make scratch slices stay legal.
//
// The traversal does not descend into internal/sched itself: the
// scheduler is the audited synchronization substrate (its locks and
// sleeps are the mechanism that runs the hot loops, checked by
// lockbalance instead), and bodies passed to it are still
// traced because the flow analysis connects them to the loop drivers
// in internal/core.
type hotpathRule struct{}

func (hotpathRule) Name() string { return "hotpath" }
func (hotpathRule) Doc() string {
	return "no alloc/block effect reachable from the kernel's Init/Iterate/Residual or ParallelFor bodies"
}

// Check is a no-op: hotpath is a module rule (see CheckModule).
func (hotpathRule) Check(*Package) []Finding { return nil }

// hotBan selects which effect kinds are forbidden for one entry.
type hotBan uint8

// The ban levels, strictest first.
const (
	// banAllocBlock forbids every alloc and block effect (kernel
	// Iterate/Residual, core loop bodies).
	banAllocBlock hotBan = iota
	// banBlock forbids only blocking (kernel Init).
	banBlock
	// banClassic forbids the classic hot-loop set: fmt/log calls,
	// append, map allocation, string concat (non-core loop bodies).
	banClassic
)

// banned reports whether an effect is forbidden at this ban level.
func (b hotBan) banned(e Effect) bool {
	switch b {
	case banAllocBlock:
		return true // any recorded effect is an alloc or a block
	case banBlock:
		return e.Kind.IsBlock()
	case banClassic:
		switch e.Kind {
		case AllocAppend, AllocConcat, AllocCall, AllocMakeMap:
			return true
		case AllocLit:
			return e.Desc == "map literal"
		}
		return false
	}
	return false
}

// hotEntry is one traversal root with its ban level and a display name
// for the finding message.
type hotEntry struct {
	node *FuncNode
	ban  hotBan
	desc string
}

// CheckModule walks the call graph from every hot entry point and
// flags each banned effect once, with the call chain that reaches it.
func (r hotpathRule) CheckModule(m *Module) []Finding {
	g := m.Graph()
	effects := m.Effects()
	entries := hotpathEntries(m)
	skip := func(n *FuncNode) bool {
		return strings.HasSuffix(n.Pkg.Path, "internal/sched")
	}
	var out []Finding
	type seenKey struct {
		pos  token.Pos
		kind EffectKind
		ban  hotBan
	}
	seen := make(map[seenKey]bool)
	for _, entry := range entries {
		reach := g.ReachableFrom(entry.node, skip)
		// Deterministic order over the reachable set.
		nodes := make([]*FuncNode, 0, len(reach))
		for n := range reach {
			nodes = append(nodes, n)
		}
		sort.Slice(nodes, func(i, j int) bool { return nodes[i].Name < nodes[j].Name })
		for _, n := range nodes {
			for _, e := range effects[n] {
				if !entry.ban.banned(e) {
					continue
				}
				key := seenKey{pos: e.Pos, kind: e.Kind, ban: entry.ban}
				if seen[key] {
					continue
				}
				seen[key] = true
				chain := strings.Join(reach[n], " → ")
				out = append(out, Finding{
					Pos:  n.Pkg.Fset.Position(e.Pos),
					Rule: r.Name(),
					Msg: "hot path reachable from " + entry.desc + " has " + e.Kind.String() +
						" (" + e.Desc + "); chain: " + chain,
				})
			}
		}
	}
	return out
}

// kernelType names the engine's one kernel type in internal/core.
// Renaming the type without updating this root fails the repo gate
// TestRepoHotpathCoversKernels.
const kernelType = "spmmKernel"

// kernelMethodBans maps the kernel's hot methods to their ban levels.
// Init is allowed to allocate by the documented kernel contract (bound
// pass closures per batch, amortized across the whole window sweep)
// but must never block; the steady-state methods may do neither.
var kernelMethodBans = []struct {
	method string
	ban    hotBan
}{
	{"Init", banBlock},
	{"Iterate", banAllocBlock},
	{"Residual", banAllocBlock},
}

// hotpathEntries discovers the traversal roots: the kernel type's hot
// methods, plus loop bodies at ParallelFor call sites.
func hotpathEntries(m *Module) []hotEntry {
	g := m.Graph()
	var entries []hotEntry
	for _, pkg := range m.Pkgs {
		if pkg.Types == nil || !strings.HasSuffix(pkg.Path, "internal/core") {
			continue
		}
		tn, ok := pkg.Types.Scope().Lookup(kernelType).(*types.TypeName)
		if !ok {
			continue
		}
		name := pkg.Types.Name() + "." + kernelType
		for _, mb := range kernelMethodBans {
			obj, _, _ := types.LookupFieldOrMethod(tn.Type(), true, nil, mb.method)
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			if node := g.NodeOf(fn); node != nil {
				entries = append(entries, hotEntry{node: node, ban: mb.ban, desc: name + "." + mb.method})
			}
		}
	}
	entries = append(entries, parallelForEntries(m)...)
	return entries
}

// hotLoopFile classifies files whose loop-dispatch call sites root a
// transitive entry, and with which ban. Only the per-vertex/per-edge
// loop files count: internal/core's window-level orchestration
// (solve.go dispatch closures) also runs on the pool, but at window
// granularity, where journaling and validation are the entire point —
// rooting those would ban the engine's own bookkeeping.
func hotLoopFile(pkgPath, base string) (hotBan, bool) {
	switch {
	case strings.HasSuffix(pkgPath, "internal/core"):
		if strings.HasPrefix(base, "kernel_") || base == "loop.go" {
			return banAllocBlock, true
		}
	case strings.HasSuffix(pkgPath, "internal/streaming"):
		if base == "runner.go" {
			return banClassic, true
		}
	}
	return 0, false
}

// parallelForEntries finds every loop body handed to the scheduler
// (ParallelFor/ParallelForCtx) or to a kernel forLoop (`loop(...)`,
// `b.loop(...)`) at call sites in the hot loop files, resolved through
// the flow analysis so bodies bound to locals or fields count.
func parallelForEntries(m *Module) []hotEntry {
	g := m.Graph()
	var entries []hotEntry
	seen := make(map[*FuncNode]hotBan)
	for _, n := range g.Nodes {
		if n.body == nil {
			continue
		}
		pkg := n.Pkg
		base := pathBase(pkg.Fset.Position(n.Pos()).Filename)
		ban, ok := hotLoopFile(pkg.Path, base)
		if !ok {
			continue
		}
		ast.Inspect(n.body, func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok || !isLoopDispatch(call) || len(call.Args) == 0 {
				return true
			}
			body := call.Args[len(call.Args)-1]
			for _, target := range g.FuncsOf(pkg, body) {
				if prev, ok := seen[target]; ok && prev <= ban {
					continue // already rooted at an equal-or-stricter ban
				}
				seen[target] = ban
				entries = append(entries, hotEntry{
					node: target,
					ban:  ban,
					desc: "loop body " + shortName(target.Name),
				})
			}
			return true
		})
	}
	return entries
}

// isLoopDispatch reports whether the call hands a body to the
// scheduler or a kernel forLoop.
func isLoopDispatch(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "loop"
	case *ast.SelectorExpr:
		switch fun.Sel.Name {
		case "ParallelFor", "ParallelForCtx", "loop":
			return true
		}
	}
	return false
}

// pathBase is filepath.Base without the import.
func pathBase(p string) string {
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		return p[i+1:]
	}
	return p
}

// HotpathEntryNames lists the rule's discovered traversal roots (the
// entry descriptions, sorted). The repo gate's kernel-coverage test
// uses this to prove the kernel's hot methods are actually rooted
// here.
func HotpathEntryNames(m *Module) []string {
	entries := hotpathEntries(m)
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.desc)
	}
	sort.Strings(names)
	return names
}
