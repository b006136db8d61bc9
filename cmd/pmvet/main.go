// Command pmvet runs the repository's domain-specific static analyzers
// (internal/lint) over the module's packages and reports findings as
//
//	file:line: rule: message
//
// exiting nonzero when any finding remains unsuppressed. It is
// stdlib-only: packages are parsed and type-checked from source, so it
// needs nothing beyond the Go toolchain.
//
// Usage:
//
//	pmvet [flags] [packages]
//
//	-rules panic,floateq,...  run a rule subset (default: all)
//	-list                     list the available rules and exit
//	-json                     emit findings as a JSON array on stdout
//	-strict                   stale //pmvet:ignore directives (and ones
//	                          naming no rule) fail the run instead of
//	                          warning
//
// Packages default to ./... and are module-relative patterns
// ("./internal/core", "./internal/..."). Suppress a single finding with
// a "//pmvet:ignore rule -- rationale" comment on the offending line or
// the line above it; pmvet reports directives that no longer suppress
// anything, so suppressions cannot outlive their finding.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"pmpr/internal/lint"
)

// jsonFinding is the -json wire form of one finding, shaped so a CI
// problem matcher (or jq) picks out file/line/rule directly.
type jsonFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
	// Severity is "error" for rule findings and "warning" for stale
	// ignore directives (unless -strict promotes them).
	Severity string `json:"severity"`
}

func main() {
	var (
		rules   = flag.String("rules", "", "comma-separated rule subset (default: all)")
		list    = flag.Bool("list", false, "list the available rules and exit")
		jsonOut = flag.Bool("json", false, "emit findings as JSON on stdout")
		strict  = flag.Bool("strict", false, "stale //pmvet:ignore directives fail the run")
	)
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-13s %s\n", a.Name(), a.Doc())
		}
		return
	}
	analyzers, err := lint.ByName(*rules)
	if err != nil {
		fatal(err)
	}

	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	loader, err := lint.NewLoader(wd)
	if err != nil {
		fatal(err)
	}
	pkgs, err := loader.Load(flag.Args()...)
	if err != nil {
		fatal(err)
	}

	rep := lint.Analyze(lint.NewModule(pkgs), analyzers)

	failing := len(rep.Findings)
	if *strict {
		failing += len(rep.Stale)
	}

	if *jsonOut {
		out := make([]jsonFinding, 0, len(rep.Findings)+len(rep.Stale))
		for _, f := range rep.Findings {
			out = append(out, jsonFinding{
				File: f.Pos.Filename, Line: f.Pos.Line,
				Rule: f.Rule, Message: f.Msg, Severity: "error",
			})
		}
		for _, f := range rep.Stale {
			sev := "warning"
			if *strict {
				sev = "error"
			}
			out = append(out, jsonFinding{
				File: f.Pos.Filename, Line: f.Pos.Line,
				Rule: f.Rule, Message: f.Msg, Severity: sev,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
	} else {
		for _, f := range rep.Findings {
			fmt.Println(f)
		}
		for _, f := range rep.Stale {
			fmt.Printf("%s [stale suppression]\n", f)
		}
	}

	if failing > 0 {
		fmt.Fprintf(os.Stderr, "pmvet: %d failing finding(s) in %d package(s)\n", failing, len(pkgs))
		os.Exit(1)
	}
	if len(rep.Stale) > 0 {
		fmt.Fprintf(os.Stderr, "pmvet: %d stale suppression(s) (warnings; -strict to fail)\n", len(rep.Stale))
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "pmvet: %v\n", err)
	os.Exit(2)
}
