// Modelcompare: runs all three execution models of the paper — offline,
// streaming, and postmortem — over the same temporal graph, verifies
// they produce the same per-window PageRank (as the paper arranges for
// its comparison), and reports their wall times.
//
// Run with: go run ./examples/modelcompare
package main

import (
	"context"

	"fmt"
	"log"
	"time"

	"pmpr/internal/analysis"
	"pmpr/internal/core"
	"pmpr/internal/events"
	"pmpr/internal/gen"
	"pmpr/internal/offline"
	"pmpr/internal/sched"
	"pmpr/internal/streaming"
)

func main() {
	profile, _ := gen.Get("wikitalk")
	raw, err := profile.Generate(0.05, 3)
	if err != nil {
		log.Fatal(err)
	}
	l := raw.Symmetrize()
	spec, err := events.Span(l, 90*gen.Day, 3*gen.Day)
	if err != nil {
		log.Fatal(err)
	}
	if spec.Count > 128 {
		spec.Count = 128
	}
	fmt.Printf("wikitalk-like log: %d events, %d vertices, %d windows (delta=90d, sw=3d)\n",
		l.Len(), l.NumVertices(), spec.Count)

	pool := sched.NewPool(0)
	defer pool.Close()

	// Offline: rebuild every window from the event database.
	t0 := time.Now()
	offStats, err := offline.Run(l, spec, offline.DefaultConfig(), pool)
	if err != nil {
		log.Fatal(err)
	}
	offT := time.Since(t0)

	// Streaming: one mutable graph, windows strictly in order.
	r, err := streaming.NewRunner(l, spec, streaming.DefaultConfig(), pool)
	if err != nil {
		log.Fatal(err)
	}
	t0 = time.Now()
	strStats, err := r.Run()
	if err != nil {
		log.Fatal(err)
	}
	strT := time.Since(t0)

	// Postmortem: temporal CSR + partial init, the default width-1
	// warm-start chains in nested mode.
	cfg := core.DefaultConfig()
	cfg.Directed = false
	eng, err := core.NewEngine(l, spec, cfg, pool)
	if err != nil {
		log.Fatal(err)
	}
	t0 = time.Now()
	series, err := eng.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	postT := time.Since(t0)

	// All three models share the PageRank convention, so the series
	// must agree window by window.
	worstL1, worstOverlap := 0.0, 1.0
	for w := 0; w < spec.Count; w++ {
		post := series.Window(w).Dense(l.NumVertices())
		if d := analysis.L1(post, offStats[w].Ranks); d > worstL1 {
			worstL1 = d
		}
		if d := analysis.L1(post, strStats[w].Ranks); d > worstL1 {
			worstL1 = d
		}
		if o := analysis.TopKOverlap(post, strStats[w].Ranks, 10); o < worstOverlap {
			worstOverlap = o
		}
	}
	fmt.Printf("result agreement across models: worst L1 distance %.2g, worst top-10 overlap %.0f%%\n",
		worstL1, 100*worstOverlap)

	fmt.Printf("\n%-12s %10s\n", "model", "time")
	fmt.Printf("%-12s %9.3fs\n", "offline", offT.Seconds())
	fmt.Printf("%-12s %9.3fs\n", "streaming", strT.Seconds())
	fmt.Printf("%-12s %9.3fs   (%.1fx vs streaming, %.1fx vs offline)\n",
		"postmortem", postT.Seconds(),
		strT.Seconds()/postT.Seconds(), offT.Seconds()/postT.Seconds())
}
