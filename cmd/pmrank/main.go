// Command pmrank runs a postmortem PageRank analysis over a temporal
// event file: it derives the sliding-window sequence, computes PageRank
// for every window with the configured parallelism, and prints a
// per-window summary plus the top-k vertices of selected windows.
//
// Usage:
//
//	pmrank -in events.ev -delta-days 90 -slide 86400 \
//	       [-mode nested|app|window] [-mw 6] [-grain 2] \
//	       [-partitioner auto|simple|static] [-no-partial] [-directed] \
//	       [-top 5] [-every 10] [-workers 0] [-out ranks.pmrs]
//	       [-model postmortem|offline|streaming|components|kcore]
//	       [-metrics-addr :8080] [-live] [-journal-out run.jsonl]
//	       [-trace-out run.trace.json]
//	       [-report-out report.json] [-discard-ranks]
//	       [-checkpoint-dir ckpt/] [-resume]
//
// Every observability output derives from one run journal: /metrics
// (-metrics-addr) exposes its fault counters and window histograms;
// with -live, GET /status returns its JSON progress snapshot (phase,
// windows done/total, histogram summaries) and GET /events streams it
// as Server-Sent Events, resumable via Last-Event-ID; -journal-out
// writes it as JSON lines; -trace-out renders its window and stage
// spans as a Chrome trace. cmd/pmtop is a terminal watcher for the live
// endpoints.
//
// With -checkpoint-dir every solved window is flushed to disk as it
// completes; an interrupted run can then be re-invoked with -resume to
// restore the finished windows and solve only the rest. Deterministic
// fault injection is armed via the PMPR_FAULTPOINTS environment
// variable (see internal/fault).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pmpr/internal/checkpoint"
	"pmpr/internal/cliutil"
	"pmpr/internal/core"
	"pmpr/internal/events"
	"pmpr/internal/gen"
	"pmpr/internal/kcore"
	"pmpr/internal/obs"
	"pmpr/internal/offline"
	"pmpr/internal/results"
	"pmpr/internal/sched"
	"pmpr/internal/streaming"
	"pmpr/internal/tcsr"
	"pmpr/internal/wcc"
)

func main() {
	var (
		in        = flag.String("in", "", "input event file (text or binary; '-' = stdin)")
		deltaDays = flag.Float64("delta-days", 90, "window size delta in days")
		slide     = flag.Int64("slide", 86400, "sliding offset sw in seconds")
		maxWin    = flag.Int("max-windows", 0, "cap the number of windows (0 = all)")
		ef        = cliutil.RegisterEngineFlags(flag.CommandLine)
		top       = flag.Int("top", 5, "top-k vertices to print per reported window")
		every     = flag.Int("every", 0, "report every n-th window (0 = auto)")
		model     = flag.String("model", "postmortem", "analysis: postmortem, offline, streaming, components or kcore")
		out       = flag.String("out", "", "write the rank series to this file (postmortem model only)")

		ckptDir = flag.String("checkpoint-dir", "", "flush each solved window to this directory (postmortem model only)")
		resume  = flag.Bool("resume", false, "restore windows already present in -checkpoint-dir instead of re-solving them")

		metricsAddr  = flag.String("metrics-addr", "", "serve /metrics and /debug/pprof on this address")
		live         = flag.Bool("live", false, "also serve /status (JSON snapshot) and /events (SSE journal) on -metrics-addr")
		journalOut   = flag.String("journal-out", "", "write the run's event journal as JSON lines to this file (postmortem model only)")
		traceOut     = flag.String("trace-out", "", "write a Chrome trace-event JSON of the schedule (postmortem model only)")
		reportOut    = flag.String("report-out", "", "write the run report JSON (postmortem model only)")
		discardRanks = flag.Bool("discard-ranks", false, "drop rank vectors after convergence (timing-only runs)")
		version      = flag.Bool("version", false, "print build info and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("pmrank", obs.CollectBuildInfo())
		return
	}
	if *in == "" {
		fmt.Fprintln(os.Stderr, "pmrank: -in is required")
		os.Exit(2)
	}
	if *model != "postmortem" && (*traceOut != "" || *reportOut != "" || *discardRanks || *ckptDir != "" || *journalOut != "" || *live) {
		fmt.Fprintln(os.Stderr, "pmrank: -trace-out/-report-out/-discard-ranks/-checkpoint-dir/-journal-out/-live apply to the postmortem model only; ignoring")
	}
	if *resume && *ckptDir == "" {
		fmt.Fprintln(os.Stderr, "pmrank: -resume requires -checkpoint-dir")
		os.Exit(2)
	}
	if *live && *metricsAddr == "" {
		fmt.Fprintln(os.Stderr, "pmrank: -live requires -metrics-addr")
		os.Exit(2)
	}
	if *out != "" && *discardRanks {
		fmt.Fprintln(os.Stderr, "pmrank: -out needs the rank vectors that -discard-ranks drops")
		os.Exit(2)
	}
	engCfg := core.DefaultConfig()
	if err := ef.ApplyTo(&engCfg); err != nil {
		fmt.Fprintf(os.Stderr, "pmrank: %v\n", err)
		os.Exit(2)
	}
	engCfg.DiscardRanks = *discardRanks

	loadStart := time.Now()
	l, err := cliutil.ReadLog(*in)
	if err != nil {
		fatal(err)
	}
	if !ef.Directed {
		l = l.Symmetrize()
	}
	loadSeconds := time.Since(loadStart).Seconds()
	spec, err := events.Span(l, int64(*deltaDays*float64(gen.Day)), *slide)
	if err != nil {
		fatal(err)
	}
	if *maxWin > 0 && spec.Count > *maxWin {
		spec.Count = *maxWin
	}
	fmt.Printf("%d events over %d vertices; %d windows (delta=%.4gd, sw=%ds)\n",
		l.Len(), l.NumVertices(), spec.Count, *deltaDays, *slide)

	pool := sched.NewPool(ef.Workers)
	defer pool.Close()
	observing := *metricsAddr != "" || *traceOut != "" || *reportOut != ""
	if observing {
		pool.EnableMetrics(true)
	}
	// The journal exists whenever someone consumes it: every
	// observability output is a view of the same event sequence.
	var journal *obs.Journal
	var journalFile *os.File
	if *live || *journalOut != "" || *metricsAddr != "" || *traceOut != "" {
		journal = obs.NewJournal(0)
	}
	var tr *obs.Trace
	if *traceOut != "" {
		tr = obs.NewTrace()
		tr.ProcessName("pmpr engine")
		tr.SetMeta("config", engCfg.Info())
		tr.SetMeta("build", obs.CollectBuildInfo())
		journal.SetTrace(tr)
	}
	if *journalOut != "" {
		f, err := os.Create(*journalOut)
		if err != nil {
			fatal(err)
		}
		journalFile = f
		journal.SetSink(f)
	}
	closeJournal := func() {
		if journal == nil {
			return
		}
		if err := journal.CloseSink(); err != nil {
			fmt.Fprintf(os.Stderr, "pmrank: journal sink: %v\n", err)
		}
		if journalFile != nil {
			if err := journalFile.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "pmrank: %s: %v\n", *journalOut, err)
			}
			journalFile = nil
		}
	}
	defer closeJournal()

	var reg *obs.Registry
	shutdownObs := func() {}
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
		reg.Gauge("pmpr_events_total", "events in the loaded log", func() float64 { return float64(l.Len()) })
		reg.Gauge("pmpr_workers", "scheduler pool size", func() float64 { return float64(pool.NumWorkers()) })
		reg.Gauge("pmpr_sched_tasks_total", "fork-join leaf tasks executed", func() float64 { return float64(pool.Stats().TotalTasks()) })
		reg.Gauge("pmpr_sched_steals_total", "tasks obtained by stealing", func() float64 { return float64(pool.Stats().TotalSteals()) })
		reg.Gauge("pmpr_sched_splits_total", "range splits performed", func() float64 { return float64(pool.Stats().TotalSplits()) })
		mux := obs.NewMux(reg)
		if *live {
			obs.HandleLive(mux, journal, journal.Status)
		}
		srv, err := obs.ServeHandler(*metricsAddr, mux)
		if err != nil {
			fatal(err)
		}
		// Graceful teardown with a short deadline: an in-flight scrape or
		// /events stream gets a moment to finish, but SIGINT still exits
		// promptly. Runs on the normal return path via the defer and
		// explicitly before the interrupted path's os.Exit.
		shutdownObs = func() {
			sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if err := srv.Shutdown(sctx); err != nil {
				fmt.Fprintf(os.Stderr, "pmrank: metrics server shutdown: %v\n", err)
			}
		}
		defer shutdownObs()
		fmt.Printf("serving metrics on http://%s/ (/metrics, /debug/pprof/)\n", srv.Addr())
		if *live {
			fmt.Printf("live progress on http://%s/status and http://%s/events\n", srv.Addr(), srv.Addr())
		}
	}
	step := *every
	if step == 0 {
		step = spec.Count / 10
		if step < 1 {
			step = 1
		}
	}

	// First SIGINT/SIGTERM cancels the solve cooperatively (the engine
	// stops at the next window/batch boundary); a second signal kills
	// the process the usual way because stop() restores the default
	// handlers once ctx is done.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	start := time.Now()
	switch *model {
	case "postmortem":
		cfg := engCfg
		cfg.Journal = journal
		eng, err := core.NewEngine(l, spec, cfg, pool)
		if err != nil {
			fatal(err)
		}
		if reg != nil {
			journal.RegisterOn(reg)
		}
		if *ckptDir != "" {
			store, err := checkpoint.Open(*ckptDir)
			if err != nil {
				fatal(err)
			}
			restored, err := eng.SetCheckpoint(store, *resume)
			if err != nil {
				fatal(err)
			}
			if *resume {
				fmt.Printf("resuming from %s: %d/%d windows restored\n", *ckptDir, restored, spec.Count)
			} else {
				fmt.Printf("checkpointing to %s\n", *ckptDir)
			}
		}
		s, err := eng.Run(ctx)
		if err != nil {
			var canceled *core.CanceledError
			if errors.As(err, &canceled) {
				fmt.Printf("pmrank: interrupted; partial progress: %d/%d windows solved\n",
					canceled.Completed, canceled.Total)
				if canceled.Checkpoint != "" {
					fmt.Printf("pmrank: completed windows checkpointed in %s; re-run with -resume to continue\n",
						canceled.Checkpoint)
				}
				// os.Exit skips the defers; flush the journal and drain the
				// obs server explicitly so the interrupt leaves clean state.
				closeJournal()
				shutdownObs()
				os.Exit(130)
			}
			fatal(err)
		}
		elapsed := time.Since(start)
		for w := 0; w < s.Len(); w += step {
			r := s.Window(w)
			fmt.Printf("window %4d [%d..%d]: |V|=%d iters=%d",
				w, spec.Start(w), spec.End(w), r.ActiveVertices, r.Iterations)
			if r.HasRanks() {
				fmt.Printf(" top%d=", *top)
				for _, rk := range r.TopK(*top) {
					fmt.Printf(" %d:%.4f", rk.Vertex, rk.Rank)
				}
			}
			fmt.Println()
		}
		fmt.Printf("postmortem: %d windows, %d total iterations, %.3fs (stored events %d, memory %.1f MB)\n",
			s.Len(), s.TotalIterations(), elapsed.Seconds(),
			eng.Temporal().TotalStoredEvents(), float64(eng.Temporal().MemoryBytes())/(1<<20))
		if s.Report != nil {
			if f := s.Report.Fault; f.Retried > 0 || f.Degraded > 0 || f.Resumed > 0 || len(f.Quarantined) > 0 {
				fmt.Printf("fault summary: %d retried, %d degraded, %d resumed, %d quarantined %v\n",
					f.Retried, f.Degraded, f.Resumed, len(f.Quarantined), f.Quarantined)
			}
		}
		if s.Report != nil {
			s.Report.SetPhase("load", loadSeconds)
			if *reportOut != "" {
				if err := s.Report.WriteJSONFile(*reportOut); err != nil {
					fatal(err)
				}
				fmt.Printf("run report written to %s\n", *reportOut)
			}
		}
		if *journalOut != "" {
			fmt.Printf("event journal written to %s (%d events)\n", *journalOut, journal.LastSeq())
		}
		if tr != nil {
			if err := tr.WriteFile(*traceOut); err != nil {
				fatal(err)
			}
			fmt.Printf("schedule trace written to %s (%d events; load in Perfetto)\n", *traceOut, tr.Len())
		}
		if *out != "" {
			if err := s.CheckExport(); err != nil {
				fatal(err)
			}
			f, err := os.Create(*out)
			if err != nil {
				fatal(err)
			}
			if err := results.Write(f, s.Export()); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("rank series written to %s\n", *out)
		}
	case "offline":
		cfg := offline.DefaultConfig()
		stats, err := offline.Run(l, spec, cfg, pool)
		if err != nil {
			fatal(err)
		}
		elapsed := time.Since(start)
		total := 0
		for _, st := range stats {
			total += st.Iterations
		}
		fmt.Printf("offline: %d windows, %d total iterations, %.3fs\n", len(stats), total, elapsed.Seconds())
	case "streaming":
		cfg := streaming.DefaultConfig()
		cfg.Directed = ef.Directed
		r, err := streaming.NewRunner(l, spec, cfg, pool)
		if err != nil {
			fatal(err)
		}
		stats, err := r.Run()
		if err != nil {
			fatal(err)
		}
		elapsed := time.Since(start)
		total, ins, rem := 0, 0, 0
		for _, st := range stats {
			total += st.Iterations
			ins += st.Inserted
			rem += st.Removed
		}
		fmt.Printf("streaming: %d windows, %d total iterations, %d inserts, %d removes, %.3fs\n",
			len(stats), total, ins, rem, elapsed.Seconds())
	case "components", "kcore":
		// Both kernels run over the representation the postmortem
		// engine would build (-mw, -directed); their window loop has a
		// fixed grain and partitioner, so -grain/-partitioner do not apply.
		tg, err := tcsr.Build(l, spec, ef.MW, ef.Directed)
		if err != nil {
			fatal(err)
		}
		if *model == "components" {
			s := wcc.Run(tg, pool)
			elapsed := time.Since(start)
			for w := 0; w < len(s); w += step {
				r := s[w]
				fmt.Printf("window %4d: |V|=%d components=%d largest=%d\n",
					w, r.ActiveVertices, r.Components, r.LargestSize)
			}
			fmt.Printf("components: %d windows, %.3fs\n", len(s), elapsed.Seconds())
		} else {
			s := kcore.Run(tg, pool)
			elapsed := time.Since(start)
			for w := 0; w < len(s); w += step {
				r := s[w]
				fmt.Printf("window %4d: |V|=%d maxcore=%d coresize=%d\n",
					w, r.ActiveVertices, r.MaxCore, r.MaxCoreSize)
			}
			fmt.Printf("kcore: %d windows, %.3fs\n", len(s), elapsed.Seconds())
		}
	default:
		fmt.Fprintf(os.Stderr, "pmrank: unknown model %q\n", *model)
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "pmrank: %v\n", err)
	os.Exit(1)
}
