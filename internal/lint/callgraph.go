// This file is the first half of pmvet's facts layer: a module-wide
// call graph over every loaded package. The rules layer (rule_*.go)
// used to be purely syntactic — each rule looked at one statement at a
// time — which cannot prove the whole-program properties the engine
// now depends on ("nothing reachable from Kernel.Iterate allocates").
// The graph makes those properties checkable: it resolves direct
// calls, devirtualizes method calls through module interfaces
// (`core.Kernel` implementations, `sched.Body`-style callbacks), and tracks
// function values as they flow through assignments, struct fields,
// parameters, and results, so a kernel pass bound to a field in Init
// and invoked through `b.loop(n, s.pass1)` three layers later is a
// plain edge.
//
// The function-value analysis is a small Andersen-style propagation:
// every storage location a func value can occupy (variable, parameter,
// struct field, result slot) is a flow node; assignments and calls add
// subset constraints; resolving a call through a func value may add
// new argument→parameter constraints, so the solver iterates to a
// fixpoint. It is flow- and context-insensitive — deliberately: the
// result over-approximates the real graph, which is the safe direction
// for the reachability rules built on top of it.

package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"slices"
	"sort"
	"strings"
)

// EdgeKind classifies how a call-graph edge was resolved.
type EdgeKind uint8

// The edge kinds, in increasing order of approximation.
const (
	// EdgeCall is a statically resolved call: plain function call,
	// method call on a concrete receiver, or an immediately invoked
	// function literal.
	EdgeCall EdgeKind = iota
	// EdgeIface is a method call through an interface, devirtualized to
	// a concrete implementation declared in the module.
	EdgeIface
	// EdgeFunc is a call through a function value, resolved by the
	// flow analysis to a function whose value reaches the call site.
	EdgeFunc
)

// String names the edge kind as printed by WriteGraph.
func (k EdgeKind) String() string {
	switch k {
	case EdgeCall:
		return "call"
	case EdgeIface:
		return "iface"
	case EdgeFunc:
		return "func"
	default:
		return fmt.Sprintf("EdgeKind(%d)", uint8(k))
	}
}

// Edge is one resolved call from a FuncNode to another.
type Edge struct {
	// Callee is the target function.
	Callee *FuncNode
	// Kind records how the target was resolved.
	Kind EdgeKind
}

// FuncNode is one function in the call graph: a declared function or
// method (Decl != nil) or a function literal (Lit != nil).
type FuncNode struct {
	// Pkg is the package the function is declared in.
	Pkg *Package
	// Decl is the declaration node; nil for literals.
	Decl *ast.FuncDecl
	// Lit is the literal node; nil for declarations.
	Lit *ast.FuncLit
	// Obj is the type-checker object of a declared function; nil for
	// literals.
	Obj *types.Func
	// Name is the canonical display name: "path.Recv.Name" for methods,
	// "path.Name" for functions, and "parent.funcN" for literals,
	// mirroring the runtime's naming so dumps read like stack traces.
	Name string
	// Edges are the node's resolved out-calls in source order,
	// deduplicated by (callee, kind).
	Edges []Edge

	body *ast.BlockStmt
}

// Pos returns the node's declaration position.
func (n *FuncNode) Pos() token.Pos {
	if n.Decl != nil {
		return n.Decl.Pos()
	}
	return n.Lit.Pos()
}

// CallGraph is the module-wide graph over every loaded package.
type CallGraph struct {
	// Nodes holds every function and literal, in deterministic order
	// (package path, then file position).
	Nodes []*FuncNode

	byObj   map[*types.Func]*FuncNode
	byLit   map[*ast.FuncLit]*FuncNode
	builder *graphBuilder
}

// NodeOf returns the graph node of a declared function, or nil.
func (g *CallGraph) NodeOf(obj *types.Func) *FuncNode { return g.byObj[obj] }

// NodeOfLit returns the graph node of a function literal, or nil.
func (g *CallGraph) NodeOfLit(lit *ast.FuncLit) *FuncNode { return g.byLit[lit] }

// FuncsOf resolves the function values expr (in pkg) may evaluate to,
// using the solved flow system: literals, named functions, and values
// the flow analysis proved can reach the expression (a loop body bound
// to a kernel-state field, a callback stored in a local). Rules use
// this to trace arguments at specific call sites — e.g. the closure
// handed to ParallelFor — without re-deriving the flow solution.
func (g *CallGraph) FuncsOf(pkg *Package, expr ast.Expr) []*FuncNode {
	funcs, keys := g.builder.evalExpr(pkg, expr)
	seen := make(map[*FuncNode]bool)
	var out []*FuncNode
	add := func(f *FuncNode) {
		if !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	for _, f := range funcs {
		add(f)
	}
	for _, k := range keys {
		for f := range g.builder.sets[k] {
			add(f)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// flowKey identifies one storage location a function value can occupy.
// Either obj (a variable, parameter, or struct field) or ret (a
// function's result slot) is set.
type flowKey struct {
	obj types.Object
	ret *FuncNode
	idx int // result index when ret is set
}

// callSite is one unresolved call recorded during the scan, revisited
// by the fixpoint solver.
type callSite struct {
	caller *FuncNode
	call   *ast.CallExpr
}

// graphBuilder accumulates the flow constraint system while scanning
// function bodies, then solves it and emits edges.
type graphBuilder struct {
	pkgs  []*Package
	graph *CallGraph

	// sets maps each flow node to the functions known to reach it;
	// succs are the subset edges (everything in key also reaches succ).
	sets  map[flowKey]map[*FuncNode]bool
	succs map[flowKey][]flowKey

	// argsDone records call sites whose argument→parameter constraints
	// were already added for a given callee.
	argsDone map[callSite]map[*FuncNode]bool

	sites   []callSite
	changed bool

	// ifaceCache memoizes interface → implementing-methods lookups.
	ifaceCache map[*types.Interface]map[string][]*FuncNode
	// namedTypes are all named (non-interface) types declared in the
	// module, the devirtualization candidate set.
	namedTypes []*types.Named
}

// BuildCallGraph constructs the module call graph over pkgs.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	b := &graphBuilder{
		pkgs: pkgs,
		graph: &CallGraph{
			byObj: make(map[*types.Func]*FuncNode),
			byLit: make(map[*ast.FuncLit]*FuncNode),
		},
		sets:       make(map[flowKey]map[*FuncNode]bool),
		succs:      make(map[flowKey][]flowKey),
		argsDone:   make(map[callSite]map[*FuncNode]bool),
		ifaceCache: make(map[*types.Interface]map[string][]*FuncNode),
	}
	b.collectNodes()
	b.collectNamedTypes()
	for _, n := range b.graph.Nodes {
		b.scanBody(n)
	}
	b.solve()
	for _, s := range b.sites {
		b.emitEdges(s)
	}
	b.graph.builder = b
	return b.graph
}

// collectNodes registers every function declaration and literal as a
// graph node, naming literals parent.funcN in declaration order.
func (b *graphBuilder) collectNodes() {
	for _, pkg := range b.pkgs {
		for _, file := range pkg.Files {
			if isTestFile(pkg, file) {
				continue
			}
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				node := &FuncNode{
					Pkg:  pkg,
					Decl: fd,
					Obj:  obj,
					Name: declName(pkg, fd),
					body: fd.Body,
				}
				b.graph.Nodes = append(b.graph.Nodes, node)
				if obj != nil {
					b.graph.byObj[obj] = node
				}
				b.collectLits(pkg, node, fd.Body)
			}
		}
	}
}

// collectLits registers the literals nested in body (recursively),
// numbering them under their parent node.
func (b *graphBuilder) collectLits(pkg *Package, parent *FuncNode, body *ast.BlockStmt) {
	if body == nil {
		return
	}
	n := 0
	// Walk without descending into nested literals; each literal
	// recurses with itself as the parent, so numbering nests the way
	// the runtime names closures (f.func1, f.func1.1, ...).
	var walk func(ast.Node) bool
	walk = func(node ast.Node) bool {
		lit, ok := node.(*ast.FuncLit)
		if !ok {
			return true
		}
		n++
		child := &FuncNode{
			Pkg:  pkg,
			Lit:  lit,
			Name: fmt.Sprintf("%s.func%d", parent.Name, n),
			body: lit.Body,
		}
		b.graph.Nodes = append(b.graph.Nodes, child)
		b.graph.byLit[lit] = child
		b.collectLits(pkg, child, lit.Body)
		return false
	}
	ast.Inspect(body, walk)
}

// declName renders pkg-qualified function and method names.
func declName(pkg *Package, fd *ast.FuncDecl) string {
	name := fd.Name.Name
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		if recv := recvTypeName(fd.Recv.List[0].Type); recv != "" {
			name = recv + "." + name
		}
	}
	return pkg.Path + "." + name
}

// recvTypeName extracts the bare receiver type name.
func recvTypeName(t ast.Expr) string {
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}

// collectNamedTypes gathers every named non-interface type declared in
// the module — the candidate set for interface devirtualization.
func (b *graphBuilder) collectNamedTypes() {
	for _, pkg := range b.pkgs {
		if pkg.Types == nil {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			b.namedTypes = append(b.namedTypes, named)
		}
	}
}

// modulePkg reports whether tp belongs to one of the loaded packages.
func (b *graphBuilder) modulePkg(tp *types.Package) bool {
	if tp == nil {
		return false
	}
	for _, pkg := range b.pkgs {
		if pkg.Types == tp {
			return true
		}
	}
	return false
}

// scanBody records the node's call sites and the flow constraints its
// statements induce. Nested literals are skipped — they are scanned as
// their own nodes.
func (b *graphBuilder) scanBody(n *FuncNode) {
	if n.body == nil {
		return
	}
	pkg := n.Pkg
	var walk func(ast.Node) bool
	walk = func(node ast.Node) bool {
		switch st := node.(type) {
		case *ast.FuncLit:
			return false // its own node
		case *ast.CallExpr:
			if !isTypeConversion(pkg, st) {
				b.sites = append(b.sites, callSite{caller: n, call: st})
			}
		case *ast.AssignStmt:
			for i, rhs := range st.Rhs {
				if len(st.Lhs) == len(st.Rhs) {
					b.flowInto(pkg, b.lhsKey(pkg, st.Lhs[i]), rhs)
				}
			}
		case *ast.ValueSpec:
			for i, v := range st.Values {
				if i < len(st.Names) {
					if obj := pkg.Info.Defs[st.Names[i]]; obj != nil {
						b.flowInto(pkg, flowKey{obj: obj}, v)
					}
				}
			}
		case *ast.CompositeLit:
			b.flowComposite(pkg, st)
		case *ast.ReturnStmt:
			for i, res := range st.Results {
				b.flowInto(pkg, flowKey{ret: n, idx: i}, res)
			}
		}
		return true
	}
	ast.Inspect(n.body, walk)
}

// lhsKey resolves an assignment target to its flow node (zero key when
// the target is not a trackable location, e.g. an index expression).
func (b *graphBuilder) lhsKey(pkg *Package, lhs ast.Expr) flowKey {
	switch lhs := lhs.(type) {
	case *ast.Ident:
		obj := pkg.Info.Defs[lhs]
		if obj == nil {
			obj = pkg.Info.Uses[lhs]
		}
		if obj != nil {
			return flowKey{obj: obj}
		}
	case *ast.SelectorExpr:
		if obj := pkg.Info.Uses[lhs.Sel]; obj != nil {
			return flowKey{obj: obj}
		}
	case *ast.ParenExpr:
		return b.lhsKey(pkg, lhs.X)
	case *ast.StarExpr:
		return b.lhsKey(pkg, lhs.X)
	}
	return flowKey{}
}

// flowComposite adds field constraints for struct literals, so a
// kernel state assembled as &state{pass: fn} flows fn into the field.
func (b *graphBuilder) flowComposite(pkg *Package, lit *ast.CompositeLit) {
	tv, ok := pkg.Info.Types[lit]
	if !ok {
		return
	}
	st, ok := deref(tv.Type).Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok {
				if obj := fieldByName(st, id.Name); obj != nil {
					b.flowInto(pkg, flowKey{obj: obj}, kv.Value)
				}
			}
			continue
		}
		if i < st.NumFields() {
			b.flowInto(pkg, flowKey{obj: st.Field(i)}, elt)
		}
	}
}

func fieldByName(st *types.Struct, name string) *types.Var {
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == name {
			return st.Field(i)
		}
	}
	return nil
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// flowInto adds "everything expr can be flows into dst".
func (b *graphBuilder) flowInto(pkg *Package, dst flowKey, expr ast.Expr) {
	if dst == (flowKey{}) || !funcTyped(pkg, expr) {
		return
	}
	funcs, keys := b.evalExpr(pkg, expr)
	for _, f := range funcs {
		b.addFunc(dst, f)
	}
	for _, k := range keys {
		b.addSubset(k, dst)
	}
}

// funcTyped reports whether expr's static type can hold a function.
func funcTyped(pkg *Package, expr ast.Expr) bool {
	t := pkg.Info.TypeOf(expr)
	if t == nil {
		return true // no type info: stay conservative
	}
	_, ok := t.Underlying().(*types.Signature)
	return ok
}

// evalExpr resolves the function values expr may evaluate to: concrete
// graph nodes plus the flow nodes it reads from.
func (b *graphBuilder) evalExpr(pkg *Package, expr ast.Expr) (funcs []*FuncNode, keys []flowKey) {
	switch e := expr.(type) {
	case *ast.FuncLit:
		if n := b.graph.byLit[e]; n != nil {
			funcs = append(funcs, n)
		}
	case *ast.Ident:
		switch obj := useOf(pkg, e).(type) {
		case *types.Func:
			if n := b.graph.byObj[obj]; n != nil {
				funcs = append(funcs, n)
			}
		case *types.Var:
			keys = append(keys, flowKey{obj: obj})
		}
	case *ast.SelectorExpr:
		switch obj := useOf(pkg, e.Sel).(type) {
		case *types.Func:
			// Method value or package-qualified function reference.
			if n := b.graph.byObj[obj]; n != nil {
				funcs = append(funcs, n)
			}
		case *types.Var:
			keys = append(keys, flowKey{obj: obj})
		}
	case *ast.CallExpr:
		if isTypeConversion(pkg, e) {
			// forLoop(serialLoop): a conversion passes its operand through.
			if len(e.Args) == 1 {
				return b.evalExpr(pkg, e.Args[0])
			}
			return nil, nil
		}
		// A call used as a value: flow from the callee's result slot.
		for _, callee := range b.staticCallees(pkg, e) {
			keys = append(keys, flowKey{ret: callee, idx: 0})
		}
	case *ast.ParenExpr:
		return b.evalExpr(pkg, e.X)
	}
	return funcs, keys
}

// useOf resolves an identifier to its object (uses, then defs).
func useOf(pkg *Package, id *ast.Ident) types.Object {
	if obj := pkg.Info.Uses[id]; obj != nil {
		return obj
	}
	return pkg.Info.Defs[id]
}

// isTypeConversion reports whether the call expression is actually a
// conversion (its Fun names a type).
func isTypeConversion(pkg *Package, call *ast.CallExpr) bool {
	tv, ok := pkg.Info.Types[call.Fun]
	return ok && tv.IsType()
}

// staticCallees resolves the statically known callees of a call: the
// named function or method (concrete receivers only), or an
// immediately invoked literal. Interface and func-value calls return
// nil here; they are resolved by the solver.
func (b *graphBuilder) staticCallees(pkg *Package, call *ast.CallExpr) []*FuncNode {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj, ok := useOf(pkg, fun).(*types.Func); ok {
			if n := b.graph.byObj[obj]; n != nil {
				return []*FuncNode{n}
			}
		}
	case *ast.SelectorExpr:
		if obj, ok := useOf(pkg, fun.Sel).(*types.Func); ok {
			if recvInterface(obj) == nil {
				if n := b.graph.byObj[obj]; n != nil {
					return []*FuncNode{n}
				}
			}
		}
	case *ast.FuncLit:
		if n := b.graph.byLit[fun]; n != nil {
			return []*FuncNode{n}
		}
	}
	return nil
}

// recvInterface returns the interface a method is declared on, or nil
// for concrete (or non-) methods.
func recvInterface(obj *types.Func) *types.Interface {
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	iface, _ := sig.Recv().Type().Underlying().(*types.Interface)
	return iface
}

// addFunc inserts f into dst's set, marking the system changed.
func (b *graphBuilder) addFunc(dst flowKey, f *FuncNode) {
	set := b.sets[dst]
	if set == nil {
		set = make(map[*FuncNode]bool)
		b.sets[dst] = set
	}
	if !set[f] {
		set[f] = true
		b.changed = true
	}
}

// addSubset records src ⊆ dst.
func (b *graphBuilder) addSubset(src, dst flowKey) {
	for _, existing := range b.succs[src] {
		if existing == dst {
			return
		}
	}
	b.succs[src] = append(b.succs[src], dst)
	b.changed = true
}

// solve iterates subset propagation and call-site argument binding to
// a fixpoint.
func (b *graphBuilder) solve() {
	for round := 0; round < 64; round++ {
		b.changed = false
		b.propagate()
		for _, s := range b.sites {
			b.bindArgs(s)
		}
		if !b.changed {
			return
		}
	}
}

// propagate pushes sets across subset edges until stable.
func (b *graphBuilder) propagate() {
	for stable := false; !stable; {
		stable = true
		for src, dsts := range b.succs {
			for f := range b.sets[src] {
				for _, dst := range dsts {
					set := b.sets[dst]
					if set == nil {
						set = make(map[*FuncNode]bool)
						b.sets[dst] = set
					}
					if !set[f] {
						set[f] = true
						stable = false
						b.changed = true
					}
				}
			}
		}
	}
}

// calleesOf computes the current callee set of a site: static targets,
// interface implementations, and flow-resolved function values.
func (b *graphBuilder) calleesOf(s callSite) map[*FuncNode]EdgeKind {
	pkg := s.caller.Pkg
	out := make(map[*FuncNode]EdgeKind)
	for _, n := range b.staticCallees(pkg, s.call) {
		out[n] = EdgeCall
	}
	if len(out) == 0 {
		if sel, ok := ast.Unparen(s.call.Fun).(*ast.SelectorExpr); ok {
			if obj, ok := useOf(pkg, sel.Sel).(*types.Func); ok {
				if iface := recvInterface(obj); iface != nil && b.modulePkg(obj.Pkg()) {
					for _, impl := range b.implementations(iface, obj.Name()) {
						out[impl] = EdgeIface
					}
				}
			}
		}
	}
	if len(out) == 0 {
		// A call through a function value: union the flow sets.
		funcs, keys := b.evalExpr(pkg, s.call.Fun)
		for _, f := range funcs {
			out[f] = EdgeFunc
		}
		for _, k := range keys {
			for f := range b.sets[k] {
				// Guard against signature mismatch from over-merged flow
				// nodes: a callee must at least be callable.
				out[f] = EdgeFunc
			}
		}
	}
	return out
}

// bindArgs adds argument→parameter and receiver-free constraints for
// every callee currently known at the site.
func (b *graphBuilder) bindArgs(s callSite) {
	pkg := s.caller.Pkg
	for callee := range b.calleesOf(s) {
		done := b.argsDone[s]
		if done == nil {
			done = make(map[*FuncNode]bool)
			b.argsDone[s] = done
		}
		if done[callee] {
			continue
		}
		done[callee] = true
		params := calleeParams(callee)
		for i, arg := range s.call.Args {
			if i >= len(params) {
				break
			}
			if params[i] != nil {
				b.flowInto(pkg, flowKey{obj: params[i]}, arg)
			}
		}
	}
}

// calleeParams lists a node's parameter objects in order.
func calleeParams(n *FuncNode) []types.Object {
	var fields []*ast.Field
	switch {
	case n.Decl != nil && n.Decl.Type.Params != nil:
		fields = n.Decl.Type.Params.List
	case n.Lit != nil && n.Lit.Type.Params != nil:
		fields = n.Lit.Type.Params.List
	}
	var out []types.Object
	for _, f := range fields {
		if len(f.Names) == 0 {
			out = append(out, nil) // unnamed parameter: nothing flows
			continue
		}
		for _, name := range f.Names {
			out = append(out, n.Pkg.Info.Defs[name])
		}
	}
	return out
}

// implementations returns the declared methods named method of every
// module type satisfying iface.
func (b *graphBuilder) implementations(iface *types.Interface, method string) []*FuncNode {
	cache := b.ifaceCache[iface]
	if cache == nil {
		cache = make(map[string][]*FuncNode)
		b.ifaceCache[iface] = cache
	}
	if impls, ok := cache[method]; ok {
		return impls
	}
	var impls []*FuncNode
	for _, named := range b.namedTypes {
		var recv types.Type = named
		if !types.Implements(recv, iface) {
			recv = types.NewPointer(named)
			if !types.Implements(recv, iface) {
				continue
			}
		}
		obj, _, _ := types.LookupFieldOrMethod(recv, true, named.Obj().Pkg(), method)
		if fn, ok := obj.(*types.Func); ok {
			if n := b.graph.byObj[fn]; n != nil {
				impls = append(impls, n)
			}
		}
	}
	cache[method] = impls
	return impls
}

// emitEdges writes the final resolved edges of a site onto its caller,
// skipping any (callee, kind) edge an earlier site already added.
func (b *graphBuilder) emitEdges(s callSite) {
	for callee, kind := range b.calleesOf(s) {
		e := Edge{Callee: callee, Kind: kind}
		if !slices.Contains(s.caller.Edges, e) {
			s.caller.Edges = append(s.caller.Edges, e)
		}
	}
}

// WriteGraph dumps the graph as sorted "caller -> callee [kind]"
// lines — the pmvet -graph format, and the shape the golden-file test
// pins. Nodes without out-edges are listed alone so the node set is
// visible too.
func (g *CallGraph) WriteGraph(w io.Writer) error {
	nodes := make([]*FuncNode, len(g.Nodes))
	copy(nodes, g.Nodes)
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Name < nodes[j].Name })
	for _, n := range nodes {
		lines := make([]string, len(n.Edges))
		for i, e := range n.Edges {
			lines[i] = fmt.Sprintf("  -> %s [%s]", e.Callee.Name, e.Kind)
		}
		sort.Strings(lines)
		if _, err := fmt.Fprintln(w, n.Name); err != nil {
			return err
		}
		for _, l := range lines {
			if _, err := fmt.Fprintln(w, l); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReachableFrom walks edges from entry, skipping nodes for which skip
// returns true (nil = never skip), and returns every visited node with
// its breadth-first call chain from entry (entry itself excluded).
// Chains make findings debuggable: the rule can print how a forbidden
// effect is reached.
func (g *CallGraph) ReachableFrom(entry *FuncNode, skip func(*FuncNode) bool) map[*FuncNode][]string {
	parents := map[*FuncNode]*FuncNode{entry: nil}
	queue := []*FuncNode{entry}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Edges {
			c := e.Callee
			if _, seen := parents[c]; seen {
				continue
			}
			if skip != nil && skip(c) {
				continue
			}
			parents[c] = n
			queue = append(queue, c)
		}
	}
	out := make(map[*FuncNode][]string, len(parents))
	for n := range parents {
		var chain []string
		for p := n; p != nil; p = parents[p] {
			chain = append(chain, shortName(p.Name))
		}
		// Reverse into entry-first order.
		for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
			chain[i], chain[j] = chain[j], chain[i]
		}
		out[n] = chain
	}
	return out
}

// shortName strips the module-path prefix for readable chains.
func shortName(name string) string {
	if i := strings.LastIndex(name, "/"); i >= 0 {
		return name[i+1:]
	}
	return name
}
