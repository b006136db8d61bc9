// Command pmbench regenerates the paper's evaluation: one experiment
// per table/figure (see DESIGN.md's experiment index).
//
// Usage:
//
//	pmbench -list
//	pmbench -exp fig5 [-scale 0.2] [-seed 1] [-workers 0] [-quick] [-max-windows 384]
//	pmbench -exp all [-quick]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"pmpr/internal/bench"
	"pmpr/internal/core"
	"pmpr/internal/obs"
)

func main() {
	var (
		exp     = flag.String("exp", "", "experiment id (or 'all'); see -list")
		scale   = flag.Float64("scale", 0.2, "dataset scale")
		seed    = flag.Int64("seed", 1, "dataset seed")
		workers = flag.Int("workers", 0, "pool size (0 = GOMAXPROCS)")
		quick   = flag.Bool("quick", false, "trim sweeps for a fast pass")
		maxWin  = flag.Int("max-windows", 0, "cap windows per spec (0 = default)")
		list    = flag.Bool("list", false, "list experiments and exit")
		version = flag.Bool("version", false, "print build info and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("pmbench", obs.CollectBuildInfo())
		return
	}
	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-22s %s\n", e.ID, e.Title)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "pmbench: -exp is required (or -list)")
		os.Exit(2)
	}
	o := bench.Options{
		Out:        os.Stdout,
		Scale:      *scale,
		Seed:       *seed,
		Workers:    *workers,
		Quick:      *quick,
		MaxWindows: *maxWin,
	}

	// First SIGINT/SIGTERM cancels the running experiment's engine at the
	// next window/batch boundary.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	fmt.Printf("pmbench: GOMAXPROCS=%d scale=%g seed=%d quick=%v\n",
		runtime.GOMAXPROCS(0), *scale, *seed, *quick)
	var err error
	if *exp == "all" {
		err = bench.RunAll(ctx, o)
	} else {
		e, ok := bench.Get(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "pmbench: unknown experiment %q; use -list\n", *exp)
			os.Exit(2)
		}
		fmt.Printf("=== %s: %s ===\n", e.ID, e.Title)
		err = e.Run(ctx, o)
	}
	if err != nil {
		if errors.Is(err, core.ErrCanceled) || errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "pmbench: interrupted")
			os.Exit(130)
		}
		fmt.Fprintf(os.Stderr, "pmbench: %v\n", err)
		os.Exit(1)
	}
}
