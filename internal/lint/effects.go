// This file is the second half of pmvet's facts layer: per-function
// effect summaries. Where callgraph.go answers "who calls whom", this
// file answers "what does each function do locally" — does it
// allocate, and can it block. The transitive hotpath rule combines the
// two: it unions local alloc/block effects over the call graph's
// reachable set.
//
// Summaries are deliberately syntactic and local. An effect is
// recorded where it happens, with a position and a human-readable
// description, so a rule that finds `core.spmmKernel.Iterate →
// fmt.Sprintf` three hops down can print both the chain and the exact
// offending expression.

package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// EffectKind classifies one local effect.
type EffectKind uint8

// Alloc effects first, then block effects. The split matters to the
// hotpath rule: the kernel's Init is allowed to allocate (the
// documented contract binds its pass closures once per batch) but must
// not block, while Iterate/Residual may do neither.
const (
	// AllocMake is a make() of a slice or channel.
	AllocMake EffectKind = iota
	// AllocMakeMap is a make() of a map — split from AllocMake because
	// the hotpath rule bans map allocation everywhere it looks, while
	// slice makes are banned only inside internal/core.
	AllocMakeMap
	// AllocNew is new(T) or a pointer-to-composite-literal (&T{...}).
	AllocNew
	// AllocLit is a map, slice, or array composite literal value.
	AllocLit
	// AllocAppend is a call to append.
	AllocAppend
	// AllocClosure is a function literal (closures capture → heap).
	AllocClosure
	// AllocConcat is string concatenation (+ / += on strings).
	AllocConcat
	// AllocConvert is an allocating conversion ([]byte(s), string(b)).
	AllocConvert
	// AllocCall is a call into a known-allocating stdlib function
	// (fmt.Sprintf, strings.Builder growth, sync.Pool.Get, ...).
	AllocCall

	// BlockChan is a channel send or receive.
	BlockChan
	// BlockSelect is a select statement with no default case.
	BlockSelect
	// BlockSync is a blocking sync primitive: Mutex/RWMutex Lock,
	// WaitGroup.Wait, Cond.Wait, Once.Do.
	BlockSync
	// BlockSleep is time.Sleep or a timer/ticker wait.
	BlockSleep
	// BlockSyscall is a call into os/net/syscall — I/O that can block.
	BlockSyscall
)

// IsAlloc reports whether the kind is an allocation effect.
func (k EffectKind) IsAlloc() bool { return k <= AllocCall }

// IsBlock reports whether the kind is a blocking effect.
func (k EffectKind) IsBlock() bool { return k >= BlockChan }

// String names the effect kind as it appears in findings.
func (k EffectKind) String() string {
	switch k {
	case AllocMake:
		return "alloc/make"
	case AllocMakeMap:
		return "alloc/make-map"
	case AllocNew:
		return "alloc/new"
	case AllocLit:
		return "alloc/lit"
	case AllocAppend:
		return "alloc/append"
	case AllocClosure:
		return "alloc/closure"
	case AllocConcat:
		return "alloc/concat"
	case AllocConvert:
		return "alloc/convert"
	case AllocCall:
		return "alloc/call"
	case BlockChan:
		return "block/chan"
	case BlockSelect:
		return "block/select"
	case BlockSync:
		return "block/sync"
	case BlockSleep:
		return "block/sleep"
	case BlockSyscall:
		return "block/syscall"
	default:
		return fmt.Sprintf("EffectKind(%d)", uint8(k))
	}
}

// Effect is one local alloc or block effect with its source position.
type Effect struct {
	Kind EffectKind
	Pos  token.Pos
	// Desc is a short rendering of the offending expression,
	// e.g. `make([]float64, n)` or `fmt.Sprintf`.
	Desc string
}

// FuncEffects is the complete local summary of one function.
type FuncEffects []Effect

// allocFuncs is the table of stdlib calls the summary treats as
// allocating. Keyed "pkg.Func" for functions, "pkg.Type.Method" for
// methods. It is a deny-list, not a whitelist: a call not listed here
// and not resolved in the module is assumed allocation-free, which
// keeps the hotpath rule quiet on math.Float64bits and friends. The
// table covers what hot code in this repo could plausibly reach.
var allocFuncs = map[string]bool{
	"fmt.Sprintf": true, "fmt.Sprint": true, "fmt.Sprintln": true,
	"fmt.Errorf": true, "fmt.Fprintf": true, "fmt.Fprintln": true,
	"fmt.Printf": true, "fmt.Println": true, "fmt.Print": true,
	"errors.New":   true,
	"strings.Join": true, "strings.Repeat": true, "strings.Split": true,
	"strings.Fields": true, "strings.Replace": true, "strings.ReplaceAll": true,
	"strings.ToLower": true, "strings.ToUpper": true,
	"strconv.Itoa": true, "strconv.FormatInt": true, "strconv.FormatFloat": true,
	"strconv.Quote": true, "strconv.AppendQuote": true,
	"sort.Slice": true, "sort.SliceStable": true, // closure boxing + reflect
	"sync.Pool.Get": true, // may call New
	"log.Printf":    true, "log.Println": true, "log.Print": true, "log.Fatalf": true,
}

// blockSyscallPkgs are packages whose calls count as BlockSyscall.
var blockSyscallPkgs = map[string]bool{
	"os": true, "net": true, "net/http": true, "syscall": true, "io": true, "bufio": true,
}

// blockSyncFuncs are the blocking sync-primitive methods.
var blockSyncFuncs = map[string]bool{
	"sync.Mutex.Lock": true, "sync.RWMutex.Lock": true, "sync.RWMutex.RLock": true,
	"sync.WaitGroup.Wait": true, "sync.Cond.Wait": true, "sync.Once.Do": true,
}

// ComputeEffects builds the local summary for every node in the graph.
func ComputeEffects(g *CallGraph) map[*FuncNode]FuncEffects {
	out := make(map[*FuncNode]FuncEffects, len(g.Nodes))
	for _, n := range g.Nodes {
		out[n] = summarize(n)
	}
	return out
}

// summarize walks one function body (not nested literals — they have
// their own nodes) and records its effects.
func summarize(n *FuncNode) FuncEffects {
	if n.body == nil {
		return nil
	}
	var fe FuncEffects
	pkg := n.Pkg
	var walk func(ast.Node) bool
	walk = func(node ast.Node) bool {
		switch e := node.(type) {
		case *ast.FuncLit:
			// A literal in the body: the closure value itself is an
			// allocation here; its effects belong to its own node.
			fe.add(AllocClosure, e.Pos(), "func literal")
			return false
		case *ast.CallExpr:
			summarizeCall(pkg, &fe, e)
		case *ast.CompositeLit:
			summarizeComposite(pkg, &fe, e)
		case *ast.UnaryExpr:
			switch e.Op {
			case token.AND:
				if _, ok := e.X.(*ast.CompositeLit); ok {
					fe.add(AllocNew, e.Pos(), "&composite literal")
				}
			case token.ARROW:
				fe.add(BlockChan, e.Pos(), "channel receive")
			}
		case *ast.SendStmt:
			fe.add(BlockChan, e.Pos(), "channel send")
		case *ast.SelectStmt:
			if !selectHasDefault(e) {
				fe.add(BlockSelect, e.Pos(), "select without default")
			}
		case *ast.RangeStmt:
			if t := pkg.Info.TypeOf(e.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					fe.add(BlockChan, e.Pos(), "range over channel")
				}
			}
		case *ast.BinaryExpr:
			if e.Op == token.ADD && isStringType(pkg, e.X) {
				fe.add(AllocConcat, e.Pos(), "string concatenation")
			}
		case *ast.AssignStmt:
			if e.Tok == token.ADD_ASSIGN && len(e.Lhs) == 1 && isStringType(pkg, e.Lhs[0]) {
				fe.add(AllocConcat, e.Pos(), "string concatenation")
			}
		}
		return true
	}
	// Walk statements directly so `top` semantics stay simple: only the
	// outermost inspection sees top-level literals, and summarize is
	// never re-entered for nested ones anyway (walk returns false).
	ast.Inspect(n.body, walk)
	return fe
}

func (fe *FuncEffects) add(kind EffectKind, pos token.Pos, desc string) {
	*fe = append(*fe, Effect{Kind: kind, Pos: pos, Desc: desc})
}

// summarizeCall classifies one call expression: builtin allocators,
// stdlib allocators, blocking sync methods, sleeps, and syscalls.
func summarizeCall(pkg *Package, fe *FuncEffects, call *ast.CallExpr) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch fun.Name {
		case "make":
			if isBuiltin(pkg, fun) {
				if callMakesMap(pkg, call) {
					fe.add(AllocMakeMap, call.Pos(), "make(map)")
				} else {
					fe.add(AllocMake, call.Pos(), "make")
				}
			}
		case "new":
			if isBuiltin(pkg, fun) {
				fe.add(AllocNew, call.Pos(), "new")
			}
		case "append":
			if isBuiltin(pkg, fun) {
				fe.add(AllocAppend, call.Pos(), "append")
			}
		}
		// []byte(s) / string(b) conversions arrive as CallExpr with a
		// type Fun; catch them here.
		if tv, ok := pkg.Info.Types[fun]; ok && tv.IsType() {
			if isAllocatingConversion(pkg, call) {
				fe.add(AllocConvert, call.Pos(), "allocating conversion")
			}
		}
	case *ast.ArrayType:
		if isAllocatingConversion(pkg, call) {
			fe.add(AllocConvert, call.Pos(), "allocating conversion")
		}
	case *ast.SelectorExpr:
		name := qualifiedCallName(pkg, fun)
		switch {
		case allocFuncs[name]:
			fe.add(AllocCall, call.Pos(), name)
		case blockSyncFuncs[name]:
			fe.add(BlockSync, call.Pos(), name)
		case name == "time.Sleep" || name == "time.After" || name == "time.Tick":
			fe.add(BlockSleep, call.Pos(), name)
		default:
			if pkgName, ok := callPkg(pkg, fun); ok && blockSyscallPkgs[pkgName] {
				fe.add(BlockSyscall, call.Pos(), name)
			}
		}
	}
}

// summarizeComposite records map/slice/array literal values (struct
// literals are free unless their address is taken, handled at &).
func summarizeComposite(pkg *Package, fe *FuncEffects, lit *ast.CompositeLit) {
	tv, ok := pkg.Info.Types[lit]
	if !ok {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Map:
		fe.add(AllocLit, lit.Pos(), "map literal")
	case *types.Slice:
		fe.add(AllocLit, lit.Pos(), "slice literal")
	}
}

// isBuiltin reports whether id resolves to a Go builtin (not shadowed).
func isBuiltin(pkg *Package, id *ast.Ident) bool {
	obj := useOf(pkg, id)
	if obj == nil {
		return true // no type info: assume the spelling means the builtin
	}
	_, ok := obj.(*types.Builtin)
	return ok
}

// callMakesMap reports whether call is make(map[...]...).
func callMakesMap(pkg *Package, call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	if _, ok := call.Args[0].(*ast.MapType); ok {
		return true
	}
	if tv, ok := pkg.Info.Types[call.Args[0]]; ok && tv.IsType() {
		_, isMap := tv.Type.Underlying().(*types.Map)
		return isMap
	}
	return false
}

// isAllocatingConversion reports whether a conversion call allocates:
// string↔[]byte/[]rune copies.
func isAllocatingConversion(pkg *Package, call *ast.CallExpr) bool {
	if len(call.Args) != 1 {
		return false
	}
	to := pkg.Info.TypeOf(call)
	from := pkg.Info.TypeOf(call.Args[0])
	if to == nil || from == nil {
		return false
	}
	// Exactly one side stringy: string([]byte) or []byte(string) copies.
	return isStringy(to) != isStringy(from)
}

func isStringy(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isStringType(pkg *Package, e ast.Expr) bool {
	t := pkg.Info.TypeOf(e)
	return t != nil && isStringy(t)
}

// selectHasDefault reports whether the select has a default clause.
func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// qualifiedCallName renders pkg.Func or pkg.Type.Method for a
// selector call into an imported package or onto a typed receiver.
func qualifiedCallName(pkg *Package, sel *ast.SelectorExpr) string {
	// Package-qualified function: atomic.AddInt64, fmt.Sprintf.
	if id, ok := sel.X.(*ast.Ident); ok {
		if pn, ok := pkg.Info.Uses[id].(*types.PkgName); ok {
			return pn.Imported().Name() + "." + sel.Sel.Name
		}
	}
	// Method call: render receiver's named type.
	if t := pkg.Info.TypeOf(sel.X); t != nil {
		if named, ok := deref(t).(*types.Named); ok {
			obj := named.Obj()
			if obj.Pkg() != nil {
				return obj.Pkg().Name() + "." + obj.Name() + "." + sel.Sel.Name
			}
		}
	}
	return sel.Sel.Name
}

// callPkg returns the package name a selector call targets, when the
// selector is package-qualified or a method on an imported type.
func callPkg(pkg *Package, sel *ast.SelectorExpr) (string, bool) {
	if id, ok := sel.X.(*ast.Ident); ok {
		if pn, ok := pkg.Info.Uses[id].(*types.PkgName); ok {
			return pn.Imported().Path(), true
		}
	}
	if t := pkg.Info.TypeOf(sel.X); t != nil {
		if named, ok := deref(t).(*types.Named); ok && named.Obj().Pkg() != nil {
			return named.Obj().Pkg().Path(), true
		}
	}
	return "", false
}
