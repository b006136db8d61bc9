// Crisis: the paper's Sec. 3.2 motivation (Hossain, Murshed et al.):
// during an organizational crisis, previously prominent actors of a
// communication network become central. On Enron-like synthetic email
// data (quiet background + a sharp event spike), this example runs a
// postmortem PageRank time series and reports which actors gained the
// most centrality inside the crisis window compared to before it.
//
// Run with: go run ./examples/crisis
package main

import (
	"context"

	"fmt"
	"log"
	"sort"

	"pmpr/internal/analysis"
	"pmpr/internal/core"
	"pmpr/internal/events"
	"pmpr/internal/gen"
	"pmpr/internal/sched"
)

func main() {
	profile, _ := gen.Get("enron")
	raw, err := profile.Generate(0.1, 11)
	if err != nil {
		log.Fatal(err)
	}
	l := raw.Symmetrize()
	pool := sched.NewPool(0)
	defer pool.Close()

	// Quarterly windows sliding by two weeks.
	spec, err := events.Span(l, 90*gen.Day, 14*gen.Day)
	if err != nil {
		log.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Directed = false
	eng, err := core.NewEngine(l, spec, cfg, pool)
	if err != nil {
		log.Fatal(err)
	}
	series, err := eng.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	// Locate the crisis: the window with the most active vertices.
	crisis := 0
	for w := 1; w < series.Len(); w++ {
		if series.Window(w).ActiveVertices > series.Window(crisis).ActiveVertices {
			crisis = w
		}
	}
	before := crisis - 8
	if before < 0 {
		before = 0
	}
	fmt.Printf("%d windows; crisis peak at window %d (day %d, %d active actors; window %d has %d)\n",
		series.Len(), crisis, (spec.Start(crisis)-spec.T0)/gen.Day,
		series.Window(crisis).ActiveVertices, before, series.Window(before).ActiveVertices)

	// Actors whose centrality grew the most into the crisis.
	pre := series.Window(before).Dense(l.NumVertices())
	peak := series.Window(crisis).Dense(l.NumVertices())
	type gain struct {
		actor int32
		pre   float64
		peak  float64
	}
	var gains []gain
	for v := int32(0); v < l.NumVertices(); v++ {
		if peak[v] > 0 {
			gains = append(gains, gain{v, pre[v], peak[v]})
		}
	}
	sort.Slice(gains, func(i, j int) bool {
		return gains[i].peak-gains[i].pre > gains[j].peak-gains[j].pre
	})
	fmt.Println("actors gaining the most centrality into the crisis:")
	for i := 0; i < 5 && i < len(gains); i++ {
		g := gains[i]
		fmt.Printf("  actor %4d: PR %.5f -> %.5f\n", g.actor, g.pre, g.peak)
	}

	// The crisis reshuffles the hierarchy: ranking agreement with the
	// pre-crisis window drops at the peak and recovers afterwards.
	fmt.Println("top-10 overlap with the pre-crisis window over time:")
	for w := before; w < series.Len() && w <= crisis+8; w += 4 {
		cur := series.Window(w).Dense(l.NumVertices())
		marker := ""
		if w == crisis {
			marker = "  <- crisis peak"
		}
		fmt.Printf("  window %3d: %.0f%%%s\n", w, 100*analysis.TopKOverlap(pre, cur, 10), marker)
	}
}
