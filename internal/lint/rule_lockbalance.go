package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// lockbalanceRule checks that every sync.Mutex/RWMutex acquired in a
// function is released on every exit path — either by a matching
// Unlock on each path or by a deferred Unlock. The engine's hottest
// mutexes (the journal ring, the scheduler's sleep lock) are taken on
// paths with several early returns; one missed Unlock on a rare branch
// deadlocks the whole pool the next time that branch is hit.
//
// The check is a small abstract interpretation over the AST: it tracks
// the multiset of held locks (keyed by the receiver expression, e.g.
// "w.p.mu") through straight-line code, requires both arms of a branch
// to agree on what is held, requires loop bodies to preserve the
// held-set (continue included), and at each return compares held
// against the deferred releases. Functions using control flow the
// interpreter cannot follow (goto, labeled branches, locks on
// non-stable expressions) are skipped entirely rather than guessed at
// — per-function soundness over coverage. Unlocks of locks the
// function never acquired are ignored: unlock-helper functions (and
// callees that release a caller's lock) are a legitimate pattern the
// caller's own balance covers.
type lockbalanceRule struct{}

func (lockbalanceRule) Name() string { return "lockbalance" }
func (lockbalanceRule) Doc() string {
	return "every Lock/RLock must be released on all return paths or deferred"
}

func (r lockbalanceRule) Check(pkg *Package) []Finding {
	var out []Finding
	for _, file := range pkg.Files {
		if isTestFile(pkg, file) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			}
			if body == nil {
				return true
			}
			la := &lockAnalysis{pkg: pkg, rule: r.Name(), deferred: map[string]bool{}}
			end := la.walkBlock(body, lockState{held: map[string]int{}}, nil)
			if !la.bailed {
				la.checkExit(body.Rbrace, end)
				out = append(out, la.findings...)
			}
			// Literals inside are analyzed as their own functions by this
			// same Inspect; their lock state is independent.
			return true
		})
	}
	return out
}

// lockState is the abstract state at one program point: how many times
// each lock key is held, and whether the point is reachable.
type lockState struct {
	held map[string]int
	dead bool
}

func (s lockState) clone() lockState {
	h := make(map[string]int, len(s.held))
	for k, v := range s.held {
		if v != 0 {
			h[k] = v
		}
	}
	return lockState{held: h, dead: s.dead}
}

func (s lockState) equal(o lockState) bool {
	for k, v := range s.held {
		if v != 0 && o.held[k] != v {
			return false
		}
	}
	for k, v := range o.held {
		if v != 0 && s.held[k] != v {
			return false
		}
	}
	return true
}

// loopCtx carries the enclosing loop's entry state for continue/break
// discipline.
type loopCtx struct {
	entry  lockState
	breaks []lockState
}

// lockAnalysis interprets one function body.
type lockAnalysis struct {
	pkg      *Package
	rule     string
	deferred map[string]bool
	findings []Finding
	bailed   bool
}

// checkExit reports locks held — net of deferred unlocks — at an exit
// point.
func (la *lockAnalysis) checkExit(pos token.Pos, s lockState) {
	if s.dead || la.bailed {
		return
	}
	var leaked []string
	for k, v := range s.held {
		if v > 0 && !la.deferred[k] {
			leaked = append(leaked, k)
		}
	}
	sort.Strings(leaked)
	for _, k := range leaked {
		la.findings = append(la.findings, Finding{
			Pos:  la.pkg.Fset.Position(pos),
			Rule: la.rule,
			Msg:  k + " is still held on this return path (unlock it or defer the unlock)",
		})
	}
}

// walkBlock interprets a statement list, returning the fall-through
// state.
func (la *lockAnalysis) walkBlock(b *ast.BlockStmt, s lockState, loop *loopCtx) lockState {
	for _, st := range b.List {
		if la.bailed {
			return s
		}
		s = la.walkStmt(st, s, loop)
	}
	return s
}

// walkStmt interprets one statement.
func (la *lockAnalysis) walkStmt(st ast.Stmt, s lockState, loop *loopCtx) lockState {
	switch st := st.(type) {
	case *ast.ExprStmt:
		la.evalExpr(st.X, &s)
	case *ast.AssignStmt, *ast.IncDecStmt, *ast.DeclStmt:
		// Lock/Unlock never appear as assignment values in this
		// codebase; lock calls nested in RHS expressions would be
		// side effects we'd miss, so scan for them and bail if found.
		la.bailIfLockCallInside(st)
	case *ast.DeferStmt:
		la.recordDefer(st.Call)
	case *ast.ReturnStmt:
		la.checkExit(st.Pos(), s)
		s.dead = true
	case *ast.BlockStmt:
		s = la.walkBlock(st, s, loop)
	case *ast.IfStmt:
		if st.Init != nil {
			la.bailIfLockCallInside(st.Init)
		}
		thenEnd := la.walkBlock(st.Body, s.clone(), loop)
		elseEnd := s.clone()
		if st.Else != nil {
			elseEnd = la.walkStmt(st.Else, s.clone(), loop)
		}
		s = la.merge(st.Pos(), thenEnd, elseEnd)
	case *ast.ForStmt:
		if st.Init != nil {
			la.bailIfLockCallInside(st.Init)
		}
		entry := s.clone()
		ctx := &loopCtx{entry: entry}
		bodyEnd := la.walkBlock(st.Body, entry.clone(), ctx)
		if la.bailed {
			return s
		}
		// The body must preserve the held-set so iteration 2 starts
		// where iteration 1 did.
		if !bodyEnd.dead && !bodyEnd.equal(entry) {
			la.bail()
			return s
		}
		// After the loop: reachable via the condition (if any) or via
		// break. An infinite for with no breaks never falls through.
		after := entry.clone()
		after.dead = st.Cond == nil && len(ctx.breaks) == 0
		for _, b := range ctx.breaks {
			if after.dead {
				after = b.clone()
			} else if !after.equal(b) {
				la.bail()
				return s
			}
		}
		s = after
	case *ast.RangeStmt:
		entry := s.clone()
		ctx := &loopCtx{entry: entry}
		bodyEnd := la.walkBlock(st.Body, entry.clone(), ctx)
		if la.bailed {
			return s
		}
		if !bodyEnd.dead && !bodyEnd.equal(entry) {
			la.bail()
			return s
		}
		after := entry.clone()
		for _, b := range ctx.breaks {
			if !after.equal(b) {
				la.bail()
				return s
			}
		}
		s = after
	case *ast.BranchStmt:
		if st.Label != nil || st.Tok == token.GOTO {
			la.bail()
			return s
		}
		switch st.Tok {
		case token.FALLTHROUGH:
			// Cases are modeled as independent branches; fallthrough
			// breaks that model.
			la.bail()
			return s
		case token.CONTINUE:
			if loop == nil {
				la.bail()
				return s
			}
			if !s.dead && !s.equal(loop.entry) {
				la.bail()
				return s
			}
			s.dead = true
		case token.BREAK:
			if loop == nil {
				// break out of a switch/select: treated by the
				// switch walker as a normal case end.
				s.dead = true
				return s
			}
			if !s.dead {
				loop.breaks = append(loop.breaks, s.clone())
			}
			s.dead = true
		}
	case *ast.SwitchStmt:
		s = la.walkCases(st.Pos(), caseBodies(st.Body), s, loop)
	case *ast.TypeSwitchStmt:
		s = la.walkCases(st.Pos(), caseBodies(st.Body), s, loop)
	case *ast.SelectStmt:
		s = la.walkCases(st.Pos(), commBodies(st.Body), s, loop)
	case *ast.LabeledStmt:
		la.bail()
	case *ast.GoStmt:
		// The goroutine's lock state is its own; but a lock call as an
		// argument would be a side effect here.
		for _, a := range st.Call.Args {
			if _, ok := a.(*ast.FuncLit); !ok {
				la.bailIfLockCallInside(a)
			}
		}
	}
	return s
}

// walkCases interprets switch/select cases as parallel branches: every
// live case end must agree; a caseless default path (no default clause
// in a switch) means the pre-state is also a possible outcome.
func (la *lockAnalysis) walkCases(pos token.Pos, cases []caseBody, s lockState, loop *loopCtx) lockState {
	if len(cases) == 0 {
		return s
	}
	hasDefault := false
	var ends []lockState
	for _, c := range cases {
		if c.isDefault {
			hasDefault = true
		}
		end := s.clone()
		for _, st := range c.body {
			if la.bailed {
				return s
			}
			end = la.walkStmt(st, end, loop)
		}
		if !end.dead {
			ends = append(ends, end)
		}
	}
	if !hasDefault {
		// The switch may match nothing and fall through unchanged.
		ends = append(ends, s.clone())
	}
	if len(ends) == 0 {
		s.dead = true
		return s
	}
	out := ends[0]
	for _, e := range ends[1:] {
		out = la.merge(pos, out, e)
	}
	return out
}

type caseBody struct {
	body      []ast.Stmt
	isDefault bool
}

func caseBodies(b *ast.BlockStmt) []caseBody {
	var out []caseBody
	for _, st := range b.List {
		if cc, ok := st.(*ast.CaseClause); ok {
			out = append(out, caseBody{body: cc.Body, isDefault: cc.List == nil})
		}
	}
	return out
}

func commBodies(b *ast.BlockStmt) []caseBody {
	var out []caseBody
	for _, st := range b.List {
		if cc, ok := st.(*ast.CommClause); ok {
			out = append(out, caseBody{body: cc.Body, isDefault: cc.Comm == nil})
		}
	}
	return out
}

// merge joins two branch ends: dead branches drop out; live branches
// must agree or the function is bailed.
func (la *lockAnalysis) merge(pos token.Pos, a, b lockState) lockState {
	switch {
	case a.dead && b.dead:
		a.dead = true
		return a
	case a.dead:
		return b
	case b.dead:
		return a
	case a.equal(b):
		return a
	default:
		la.bail()
		return a
	}
}

func (la *lockAnalysis) bail() { la.bailed = true }

// evalExpr applies the lock effects of an expression statement.
func (la *lockAnalysis) evalExpr(e ast.Expr, s *lockState) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		// A plain call: a lock call could hide in its arguments.
		la.bailIfLockCallInside(e)
		return
	}
	if !isSyncLockRecv(la.pkg, sel) {
		la.bailIfLockCallInside(e)
		return
	}
	key := stableExprKey(sel.X)
	switch sel.Sel.Name {
	case "Lock", "RLock":
		if key == "" {
			la.bail()
			return
		}
		s.held[key]++
	case "Unlock", "RUnlock":
		if key == "" {
			la.bail()
			return
		}
		if s.held[key] > 0 {
			s.held[key]--
		}
		// Releasing a lock this function never took is the
		// unlock-helper pattern; ignore it.
	}
}

// recordDefer registers deferred unlocks: `defer mu.Unlock()` directly,
// or unlock calls inside a deferred function literal.
func (la *lockAnalysis) recordDefer(call *ast.CallExpr) {
	record := func(c *ast.CallExpr) {
		sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr)
		if !ok || !isSyncLockRecv(la.pkg, sel) {
			return
		}
		if sel.Sel.Name != "Unlock" && sel.Sel.Name != "RUnlock" {
			return
		}
		if key := stableExprKey(sel.X); key != "" {
			la.deferred[key] = true
		}
	}
	record(call)
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				record(c)
			}
			return true
		})
	}
}

// bailIfLockCallInside bails the function when a Lock/Unlock call
// hides somewhere the interpreter does not model (assignment RHS,
// call arguments).
func (la *lockAnalysis) bailIfLockCallInside(n ast.Node) {
	ast.Inspect(n, func(node ast.Node) bool {
		if la.bailed {
			return false
		}
		if _, ok := node.(*ast.FuncLit); ok {
			return false // its own function, analyzed separately
		}
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			switch sel.Sel.Name {
			case "Lock", "Unlock", "RLock", "RUnlock":
				if isSyncLockRecv(la.pkg, sel) {
					la.bail()
					return false
				}
			}
		}
		return true
	})
}

// isSyncLockRecv reports whether the selector's receiver is a
// sync.Mutex or sync.RWMutex (directly or via pointer).
func isSyncLockRecv(pkg *Package, sel *ast.SelectorExpr) bool {
	t := pkg.Info.TypeOf(sel.X)
	if t == nil {
		return false
	}
	named, ok := deref(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// deref strips one level of pointer from t.
func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// stableExprKey renders a lock receiver as a stable key ("w.p.mu"), or
// "" when the expression involves calls/indexing the interpreter
// cannot treat as a constant location.
func stableExprKey(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := stableExprKey(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.StarExpr:
		return stableExprKey(e.X)
	default:
		return ""
	}
}
