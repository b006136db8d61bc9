// Quickstart: postmortem PageRank over the paper's running example
// (Fig. 2). Fourteen temporal events define a graph observed through
// three overlapping 3.5-month windows; the analysis shows vertex 7
// appearing in the second window and vertex 2 taking over as the hub in
// the third.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"

	"fmt"
	"log"

	"pmpr/internal/core"
	"pmpr/internal/events"
)

func main() {
	// The temporal edge list of Fig. 2a, dates as day offsets from
	// 6/1/2021.
	raw := []events.Event{
		{U: 1, V: 2, T: 20},  // 06/21
		{U: 3, V: 5, T: 24},  // 06/25
		{U: 4, V: 6, T: 40},  // 07/11
		{U: 2, V: 3, T: 61},  // 08/01
		{U: 2, V: 4, T: 71},  // 08/11
		{U: 5, V: 6, T: 104}, // 09/13
		{U: 2, V: 7, T: 123}, // 10/02
		{U: 4, V: 7, T: 126}, // 10/05
		{U: 5, V: 7, T: 127}, // 10/06
		{U: 6, V: 7, T: 130}, // 10/09
		{U: 1, V: 2, T: 157}, // 11/05
		{U: 1, V: 3, T: 158}, // 11/06
		{U: 2, V: 5, T: 161}, // 11/09
		{U: 3, V: 5, T: 164}, // 11/12
	}
	l, err := events.NewLog(raw, 8)
	if err != nil {
		log.Fatal(err)
	}
	// The relations are undirected: store both directions, as the
	// paper's temporal CSR does (Fig. 3).
	l = l.Symmetrize()

	// Sliding window: delta = 3.5 months (~106 days), sw = 1 month.
	spec := events.WindowSpec{T0: 0, Delta: 106, Slide: 30, Count: 3}

	cfg := core.DefaultConfig() // nested parallelism, partial init
	cfg.Directed = false
	eng, err := core.NewEngine(l, spec, cfg, nil) // nil pool = serial
	if err != nil {
		log.Fatal(err)
	}
	series, err := eng.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	for w := 0; w < series.Len(); w++ {
		r := series.Window(w)
		fmt.Printf("T%d (days %d..%d): %d active vertices, %d iterations\n",
			w+1, spec.Start(w), spec.End(w), r.ActiveVertices, r.Iterations)
		for _, rk := range r.TopK(3) {
			fmt.Printf("  vertex %d  PR=%.4f\n", rk.Vertex, rk.Rank)
		}
	}
	fmt.Printf("\nvertex 7 over time: T1=%.4f  T2=%.4f  T3=%.4f (joins the graph in T2)\n",
		series.Window(0).Rank(7), series.Window(1).Rank(7), series.Window(2).Rank(7))
}
