package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// eventexhaustRule turns journal schema drift into a build break. The
// obs.EventType vocabulary is consumed in several places that must
// stay in lockstep with it — Event.AppendJSON's per-type field switch
// (which pmtop -validate round-trips every line through), the journal
// reducer's switch that derives the counters, histograms, /status and
// trace, and EventType.Known — and historically a new event type
// silently fell through those switches until someone noticed malformed
// JSONL. The rule enumerates every constant of the
// obs EventType type, then checks module-wide:
//
//   - every switch whose tag has type obs.EventType and no default
//     clause must have a case for every constant;
//   - every composite literal of a map keyed by obs.EventType must
//     have an entry for every constant.
//
// A switch with a default clause is exempt (non-exhaustiveness is then
// explicit); the SSE stream needs no case of its own because it
// renders through AppendJSON, which this rule pins.
type eventexhaustRule struct{}

func (eventexhaustRule) Name() string { return "eventexhaust" }
func (eventexhaustRule) Doc() string {
	return "switches and maps over obs.EventType must cover every event constant (or carry a default)"
}

// Check is a no-op: eventexhaust is a module rule (see CheckModule).
func (eventexhaustRule) Check(*Package) []Finding { return nil }

// CheckModule finds the EventType vocabulary and audits its consumers.
func (r eventexhaustRule) CheckModule(m *Module) []Finding {
	evType, consts := eventTypeVocabulary(m)
	if evType == nil || len(consts) == 0 {
		return nil
	}
	var out []Finding
	for _, pkg := range m.Pkgs {
		for _, file := range pkg.Files {
			if isTestFile(pkg, file) {
				continue
			}
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SwitchStmt:
					r.checkSwitch(pkg, n, evType, consts, &out)
				case *ast.CompositeLit:
					r.checkMapLit(pkg, n, evType, consts, &out)
				}
				return true
			})
		}
	}
	return out
}

// eventTypeVocabulary locates the EventType named type in the obs
// package and every declared constant of that type, in declaration
// order.
func eventTypeVocabulary(m *Module) (*types.Named, []*types.Const) {
	var evType *types.Named
	for _, pkg := range m.Pkgs {
		if !strings.HasSuffix(pkg.Path, "internal/obs") || pkg.Types == nil {
			continue
		}
		if tn, ok := pkg.Types.Scope().Lookup("EventType").(*types.TypeName); ok {
			evType, _ = tn.Type().(*types.Named)
		}
	}
	if evType == nil {
		return nil, nil
	}
	var consts []*types.Const
	scope := evType.Obj().Pkg().Scope()
	names := scope.Names()
	sort.Strings(names)
	for _, name := range names {
		if c, ok := scope.Lookup(name).(*types.Const); ok && types.Identical(c.Type(), evType) {
			consts = append(consts, c)
		}
	}
	return evType, consts
}

// checkSwitch audits one switch statement over EventType.
func (r eventexhaustRule) checkSwitch(pkg *Package, sw *ast.SwitchStmt, evType *types.Named, consts []*types.Const, out *[]Finding) {
	if sw.Tag == nil {
		return
	}
	if t := pkg.Info.TypeOf(sw.Tag); t == nil || !types.Identical(t, evType) {
		return
	}
	covered := make(map[string]bool)
	for _, st := range sw.Body.List {
		cc, ok := st.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			return // a default clause makes non-exhaustiveness explicit
		}
		for _, e := range cc.List {
			if c := constOf(pkg, e); c != nil {
				covered[c.Name()] = true
			}
		}
	}
	missing := missingNames(consts, covered)
	if len(missing) > 0 {
		pkg.findingf(out, sw, r.Name(),
			"switch over obs.EventType misses %s (add cases or a default)",
			strings.Join(missing, ", "))
	}
}

// checkMapLit audits one map literal keyed by EventType.
func (r eventexhaustRule) checkMapLit(pkg *Package, lit *ast.CompositeLit, evType *types.Named, consts []*types.Const, out *[]Finding) {
	tv, ok := pkg.Info.Types[lit]
	if !ok {
		return
	}
	mt, ok := tv.Type.Underlying().(*types.Map)
	if !ok || !types.Identical(mt.Key(), evType) {
		return
	}
	covered := make(map[string]bool)
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if c := constOf(pkg, kv.Key); c != nil {
			covered[c.Name()] = true
		}
	}
	missing := missingNames(consts, covered)
	if len(missing) > 0 {
		pkg.findingf(out, lit, r.Name(),
			"map keyed by obs.EventType misses %s (every event type needs an entry)",
			strings.Join(missing, ", "))
	}
}

// constOf resolves an expression to the typed constant it names, seen
// through conversions like obs.EventType("x") — those stay anonymous
// and return nil, which is the point: consumers must use the named
// constants.
func constOf(pkg *Package, e ast.Expr) *types.Const {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		c, _ := useOf(pkg, e).(*types.Const)
		return c
	case *ast.SelectorExpr:
		c, _ := pkg.Info.Uses[e.Sel].(*types.Const)
		return c
	}
	return nil
}

// useOf resolves an identifier to its object (uses, then defs).
func useOf(pkg *Package, id *ast.Ident) types.Object {
	if obj := pkg.Info.Uses[id]; obj != nil {
		return obj
	}
	return pkg.Info.Defs[id]
}

// missingNames lists the constants not in covered, in sorted order.
func missingNames(consts []*types.Const, covered map[string]bool) []string {
	var missing []string
	for _, c := range consts {
		if !covered[c.Name()] {
			missing = append(missing, c.Name())
		}
	}
	return missing
}
