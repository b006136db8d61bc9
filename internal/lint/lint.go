// Package lint is the analysis engine behind cmd/pmvet: a small,
// stdlib-only (go/ast + go/parser + go/types) analyzer driver that
// loads this module's packages from source and enforces the domain
// rules the postmortem data structures depend on. The paper's speedups
// come from shared-structure tricks — temporal CSR with local
// relabeling, warm-started vectors, sweeps over shared multi-window
// graphs — where a silent mistake produces plausible-but-wrong ranks or
// a stuck solve; these rules make the dangerous patterns loud at review
// time.
//
// Per-package Analyzers see one package at a time. ModuleAnalyzers
// (eventexhaust) see every loaded package at once through a Module, so
// they can join facts across packages: an enum declared in one package
// and switched on in another.
//
// Each rule is individually suppressible at a finding site with a
//
//	//pmvet:ignore rule[,rule...] [-- rationale]
//
// comment on the offending line or the line directly above it. The
// rationale after "--" is for the human reader; pmvet only matches the
// rule list. Analyze additionally reports directives that no longer
// suppress anything (stale ignores), so suppressions cannot outlive
// the finding they were reviewed for.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one rule violation, rendered as "file:line: rule: message".
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
}

// String renders the finding in the canonical pmvet output form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Msg)
}

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// Path is the import path (e.g. "pmpr/internal/core").
	Path string
	// Dir is the absolute directory the files were parsed from.
	Dir string
	// Fset positions all Files.
	Fset *token.FileSet
	// Files are the parsed non-test sources, with comments.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info carries the type-checker's expression/object tables.
	Info *types.Info

	ignores map[string]map[int][]*ignoreEntry // filename -> line -> directives
}

// Analyzer is one pmvet rule.
type Analyzer interface {
	// Name is the rule identifier used in findings and ignore comments.
	Name() string
	// Doc is a one-line description for -list output.
	Doc() string
	// Check reports the rule's findings for pkg.
	Check(pkg *Package) []Finding
}

// ModuleAnalyzer is a rule that needs every package at once. Its
// CheckModule runs once per analysis; its per-package Check is a no-op
// so it still satisfies Analyzer for -rules selection and -list.
type ModuleAnalyzer interface {
	Analyzer
	// CheckModule reports the rule's findings for the whole module.
	CheckModule(m *Module) []Finding
}

// Module is the whole-module view handed to ModuleAnalyzers: the
// loaded packages plus an index from filename to owning package.
type Module struct {
	// Pkgs are the loaded packages, in load order.
	Pkgs []*Package

	fileOwner map[string]*Package
}

// NewModule wraps loaded packages for module-level analysis.
func NewModule(pkgs []*Package) *Module {
	return &Module{Pkgs: pkgs}
}

// PackageFor resolves the package that owns a filename, so module-rule
// findings are suppressed against the right package's ignore index.
func (m *Module) PackageFor(filename string) *Package {
	if m.fileOwner == nil {
		m.fileOwner = make(map[string]*Package)
		for _, pkg := range m.Pkgs {
			for _, file := range pkg.Files {
				m.fileOwner[pkg.Fset.Position(file.Pos()).Filename] = pkg
			}
		}
	}
	return m.fileOwner[filename]
}

// Analyzers returns the full rule set in stable order.
func Analyzers() []Analyzer {
	return []Analyzer{
		panicRule{},
		recovercheckRule{},
		floateqRule{},
		closecheckRule{},
		docRule{},
		ctxfirstRule{},
		lockbalanceRule{},
		eventexhaustRule{},
	}
}

// ByName resolves a comma-separated rule list; unknown names error.
func ByName(names string) ([]Analyzer, error) {
	all := Analyzers()
	if names == "" {
		return all, nil
	}
	byName := make(map[string]Analyzer, len(all))
	for _, a := range all {
		byName[a.Name()] = a
	}
	var out []Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("lint: unknown rule %q (have %s)", n, ruleNames(all))
		}
		out = append(out, a)
	}
	return out, nil
}

func ruleNames(as []Analyzer) string {
	names := make([]string, len(as))
	for i, a := range as {
		names[i] = a.Name()
	}
	return strings.Join(names, ", ")
}

// Report is the full result of one Analyze call.
type Report struct {
	// Findings are the unsuppressed rule findings, sorted by position.
	Findings []Finding
	// Stale are //pmvet:ignore directives that suppressed nothing this
	// run: ones naming a selected rule that matched no finding, and ones
	// naming no rule pmvet has (rule name "stale-ignore"). Warnings by
	// default; pmvet -strict promotes them to failures.
	Stale []Finding
}

// StaleRule is the pseudo-rule name stale-directive findings carry.
const StaleRule = "stale-ignore"

// Analyze applies the analyzers to the module: per-package rules run
// on each package, module rules run once over the whole module, and
// every finding is filtered through the owning package's ignore
// directives. Directives that name a selected rule but matched nothing,
// or that name an unknown rule, are reported in Report.Stale.
func Analyze(m *Module, analyzers []Analyzer) *Report {
	rep := &Report{}
	for _, pkg := range m.Pkgs {
		pkg.buildIgnores()
	}
	selected := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		selected[a.Name()] = true
	}
	for _, a := range analyzers {
		if ma, ok := a.(ModuleAnalyzer); ok {
			for _, f := range ma.CheckModule(m) {
				owner := m.PackageFor(f.Pos.Filename)
				if owner == nil || !owner.suppress(f) {
					rep.Findings = append(rep.Findings, f)
				}
			}
		} else {
			for _, pkg := range m.Pkgs {
				for _, f := range a.Check(pkg) {
					if !pkg.suppress(f) {
						rep.Findings = append(rep.Findings, f)
					}
				}
			}
		}
	}
	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name()] = true
	}
	for _, pkg := range m.Pkgs {
		rep.Stale = append(rep.Stale, pkg.staleIgnores(selected, known)...)
	}
	sortFindings(rep.Findings)
	sortFindings(rep.Stale)
	return rep
}

// Run applies the analyzers to the packages and returns the
// unsuppressed findings sorted by position. It is the simple wrapper
// over Analyze for callers that do not need stale-ignore data.
func Run(pkgs []*Package, analyzers []Analyzer) []Finding {
	return Analyze(NewModule(pkgs), analyzers).Findings
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
}

const ignoreMarker = "pmvet:ignore"

// ignoreEntry is one rule named by one //pmvet:ignore directive, with
// a usage bit for the stale audit.
type ignoreEntry struct {
	rule string
	pos  token.Position
	used bool
}

// buildIgnores indexes every //pmvet:ignore comment by file and line.
func (p *Package) buildIgnores() {
	if p.ignores != nil {
		return
	}
	p.ignores = make(map[string]map[int][]*ignoreEntry)
	for _, file := range p.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimPrefix(strings.TrimSpace(text), "/*")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, ignoreMarker) {
					continue
				}
				spec := strings.TrimSpace(strings.TrimPrefix(text, ignoreMarker))
				if i := strings.Index(spec, "--"); i >= 0 {
					spec = strings.TrimSpace(spec[:i]) // strip rationale
				}
				pos := p.Fset.Position(c.Pos())
				lines := p.ignores[pos.Filename]
				if lines == nil {
					lines = make(map[int][]*ignoreEntry)
					p.ignores[pos.Filename] = lines
				}
				for _, r := range strings.Split(spec, ",") {
					if r = strings.TrimSpace(r); r != "" {
						lines[pos.Line] = append(lines[pos.Line], &ignoreEntry{rule: r, pos: pos})
					}
				}
			}
		}
	}
}

// suppress reports whether an ignore comment on the finding's line or
// the line above names the finding's rule, marking the directive used.
func (p *Package) suppress(f Finding) bool {
	lines := p.ignores[f.Pos.Filename]
	if lines == nil {
		return false
	}
	hit := false
	for _, line := range []int{f.Pos.Line, f.Pos.Line - 1} {
		for _, e := range lines[line] {
			if e.rule == f.Rule {
				e.used = true
				hit = true
			}
		}
	}
	return hit
}

// staleIgnores reports the package's directives that name a rule in
// the selected set but suppressed nothing, and every directive naming
// a rule not in known, whatever is selected. Directives for known but
// unselected rules are left alone — a -rules subset must not call the
// other rules' suppressions stale.
func (p *Package) staleIgnores(selected, known map[string]bool) []Finding {
	var out []Finding
	for _, lines := range p.ignores {
		for _, entries := range lines {
			for _, e := range entries {
				msg := "suppresses nothing (remove it or fix the rule list)"
				switch {
				case !known[e.rule]:
					msg = "names no pmvet rule (remove it or fix the rule name)"
				case e.used || !selected[e.rule]:
					continue
				}
				out = append(out, Finding{
					Pos:  e.pos,
					Rule: StaleRule,
					Msg:  fmt.Sprintf("//pmvet:ignore %s %s", e.rule, msg),
				})
			}
		}
	}
	return out
}

// findingf appends a finding at node's position.
func (p *Package) findingf(out *[]Finding, node ast.Node, rule, format string, args ...interface{}) {
	*out = append(*out, Finding{
		Pos:  p.Fset.Position(node.Pos()),
		Rule: rule,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// isTestFile reports whether the file's name ends in _test.go (the
// loader skips those, but in-memory fixtures may include them).
func isTestFile(p *Package, file *ast.File) bool {
	return strings.HasSuffix(p.Fset.Position(file.Pos()).Filename, "_test.go")
}
