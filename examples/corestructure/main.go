// Corestructure: postmortem analysis with the other kernels the paper's
// Sec. 3.1 mentions for the sliding-window model — connected components
// and k-core decomposition — over the same temporal CSR representation
// used for PageRank. On stackoverflow-like growing data it tracks how
// the community consolidates: the giant component swallows the graph
// and the innermost core densifies over time.
//
// Run with: go run ./examples/corestructure
package main

import (
	"fmt"
	"log"

	"pmpr/internal/events"
	"pmpr/internal/gen"
	"pmpr/internal/kcore"
	"pmpr/internal/sched"
	"pmpr/internal/tcsr"
	"pmpr/internal/wcc"
)

func main() {
	profile, _ := gen.Get("stackoverflow")
	raw, err := profile.Generate(0.05, 13)
	if err != nil {
		log.Fatal(err)
	}
	l := raw.Symmetrize()
	spec, err := events.Span(l, 180*gen.Day, 90*gen.Day)
	if err != nil {
		log.Fatal(err)
	}
	pool := sched.NewPool(0)
	defer pool.Close()

	// One temporal representation (six multi-window graphs, the
	// PageRank engine's default) serves both kernels.
	tg, err := tcsr.Build(l, spec, 6, false)
	if err != nil {
		log.Fatal(err)
	}
	comps := wcc.Run(tg, pool)
	cores := kcore.Run(tg, pool)

	fmt.Printf("%d windows (delta=180d, sw=90d) over %d events\n\n", spec.Count, l.Len())
	fmt.Printf("%-8s %10s %12s %14s %9s %14s\n",
		"window", "|V|", "components", "giant share", "max core", "core size")
	for w := 0; w < spec.Count; w++ {
		cw, kw := comps[w], cores[w]
		share := 0.0
		if cw.ActiveVertices > 0 {
			share = float64(cw.LargestSize) / float64(cw.ActiveVertices)
		}
		fmt.Printf("%-8d %10d %12d %13.0f%% %9d %14d\n",
			w, cw.ActiveVertices, cw.Components, 100*share, kw.MaxCore, kw.MaxCoreSize)
	}
	fmt.Println("\n(growing data: the giant component's share and the degeneracy rise over time)")
}
