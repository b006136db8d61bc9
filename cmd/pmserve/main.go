// Command pmserve is the rank-serving daemon: it loads a .pmrs rank
// series (or computes one in-process) into an immutable, concurrently
// shared store and answers rank queries over HTTP/JSON.
//
// Usage:
//
//	pmserve -load ranks.pmrs [-addr 127.0.0.1:8097] [-cache 4096] [-max-k 1000]
//	pmserve -solve -in events.ev -delta-days 90 -slide 86400 \
//	        [-mode nested|app|window] [engine flags...]
//
// Query endpoints (all GET, all JSON):
//
//	/v1/topk?window=W&k=K          top-k vertices of one window
//	/v1/vertex/{id}/trajectory     a vertex's rank across all windows
//	/v1/movers?from=A&to=B&k=K     largest rank shifts between windows
//	/v1/windows                    spec, per-window status, cache stats
//
// Responses are cached in an LRU keyed by the canonical query (the
// X-Cache header reports hit/miss/coalesced) and identical concurrent
// queries are coalesced into one computation. The endpoints share the
// observability mux, so /metrics, /debug/pprof/, /status and /events
// are served on the same address; with -solve the daemon comes up
// immediately (queries answer 503 until the engine finishes) and the
// run journal streams window_done frames over /events while it solves.
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

	"pmpr/internal/cliutil"
	"pmpr/internal/core"
	"pmpr/internal/events"
	"pmpr/internal/gen"
	"pmpr/internal/obs"
	"pmpr/internal/results"
	"pmpr/internal/sched"
	"pmpr/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8097", "serve HTTP on this address")
		load      = flag.String("load", "", "serve a rank series from this .pmrs file")
		solve     = flag.Bool("solve", false, "run the postmortem engine in-process on -in and serve its result")
		in        = flag.String("in", "", "input event file for -solve (text or binary; '-' = stdin)")
		deltaDays = flag.Float64("delta-days", 90, "window size delta in days (-solve)")
		slide     = flag.Int64("slide", 86400, "sliding offset sw in seconds (-solve)")
		maxWin    = flag.Int("max-windows", 0, "cap the number of windows (0 = all; -solve)")
		ef        = cliutil.RegisterEngineFlags(flag.CommandLine)
		cacheN    = flag.Int("cache", 0, "response cache entries (0 = default)")
		maxK      = flag.Int("max-k", serve.DefaultMaxK, "largest k accepted by topk/movers queries")
		version   = flag.Bool("version", false, "print build info and exit")

		reqTimeout   = flag.Duration("request-timeout", 5*time.Second, "per-request deadline for /v1 queries (0 = none)")
		maxInFlight  = flag.Int("max-inflight", 256, "concurrent uncached query computations before queueing (0 = unlimited)")
		maxQueue     = flag.Int("max-queue", 0, "requests waiting for a compute slot before shedding (0 = -max-inflight)")
		queueWait    = flag.Duration("queue-wait", 100*time.Millisecond, "longest a queued request waits for a compute slot before shedding")
		rate         = flag.Float64("rate", 0, "per-client sustained requests/sec on /v1 endpoints (0 = unlimited)")
		rateBurst    = flag.Int("rate-burst", 0, "per-client burst above -rate (0 = ceil(-rate))")
		drainTimeout = flag.Duration("drain-timeout", 5*time.Second, "how long in-flight requests get to finish at shutdown")
	)
	flag.Parse()
	if *version {
		fmt.Println("pmserve", obs.CollectBuildInfo())
		return
	}
	if (*load == "") == !*solve {
		fmt.Fprintln(os.Stderr, "pmserve: exactly one of -load or -solve is required")
		os.Exit(2)
	}
	if *solve && *in == "" {
		fmt.Fprintln(os.Stderr, "pmserve: -solve requires -in")
		os.Exit(2)
	}
	cfg := core.DefaultConfig()
	if err := ef.ApplyTo(&cfg); err != nil {
		fmt.Fprintf(os.Stderr, "pmserve: %v\n", err)
		os.Exit(2)
	}

	svc := serve.NewService(*cacheN)
	svc.MaxK = *maxK
	guard := serve.NewGuard(serve.GuardConfig{
		Timeout:     *reqTimeout,
		MaxInFlight: *maxInFlight,
		MaxQueue:    *maxQueue,
		QueueWait:   *queueWait,
		RatePerSec:  *rate,
		RateBurst:   *rateBurst,
	})
	svc.Guard = guard
	journal := obs.NewJournal(0)

	// /status is the journal's snapshot of the -solve run, reported as
	// "loading" until a run starts and as "serving" once a store is
	// published.
	statusFn := func() obs.Status {
		st := journal.Status()
		if st.Phase == "idle" {
			st.Phase = "loading"
		}
		if rs := svc.Store(); rs != nil {
			st.Phase = "serving"
			st.WindowsTotal = rs.NumWindows()
			st.WindowsDone = rs.NumWindows()
		}
		return st
	}

	reg := obs.NewRegistry()
	if *solve {
		journal.RegisterOn(reg)
	}
	guard.RegisterOn(reg)
	reg.Gauge("pmpr_serve_cache_entries", "rank query cache entries", func() float64 {
		return float64(svc.CacheStats().Entries)
	})
	reg.Gauge("pmpr_serve_cache_hits_total", "rank query cache hits", func() float64 {
		return float64(svc.CacheStats().Hits)
	})
	reg.Gauge("pmpr_serve_cache_misses_total", "rank query cache misses", func() float64 {
		return float64(svc.CacheStats().Misses)
	})
	reg.Gauge("pmpr_serve_cache_evicts_total", "rank query cache evictions", func() float64 {
		return float64(svc.CacheStats().Evicts)
	})
	reg.Gauge("pmpr_serve_store_windows", "windows in the published store", func() float64 {
		if rs := svc.Store(); rs != nil {
			return float64(rs.NumWindows())
		}
		return 0
	})
	reg.Gauge("pmpr_serve_store_vertices", "vertex-space size of the published store", func() float64 {
		if rs := svc.Store(); rs != nil {
			return float64(rs.NumVertices())
		}
		return 0
	})
	reg.Gauge("pmpr_serve_store_generation", "publish generation of the served store", func() float64 {
		if rs := svc.Store(); rs != nil {
			return float64(rs.Generation())
		}
		return 0
	})

	mux := obs.NewMux(reg)
	obs.HandleLive(mux, journal, statusFn)
	svc.Mount(mux)
	svc.MountOps(mux)
	obs.HandleIndex(mux, "pmserve", []string{
		"/v1/topk", "/v1/vertex/{id}/trajectory", "/v1/movers", "/v1/windows",
		"/healthz", "/readyz",
		"/status", "/events", "/metrics", "/debug/pprof/",
	})

	srv, err := obs.ServeHandler(*addr, mux)
	if err != nil {
		fatal(err)
	}
	// shutdown is the single exit path once the server is up: gate new
	// work out (503 + Retry-After), let in-flight requests run to
	// completion within -drain-timeout (Shutdown force-closes stragglers
	// and SSE streams at the deadline), then join any orphaned coalesced
	// fills so process exit never races a live computation.
	shutdown := func(code int) {
		guard.StartDrain()
		sctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			fmt.Fprintf(os.Stderr, "pmserve: shutdown: %v\n", err)
		}
		svc.WaitFills()
		os.Exit(code)
	}
	fmt.Printf("pmserve: serving on http://%s/ (/v1/topk, /v1/vertex/{id}/trajectory, /v1/movers, /v1/windows)\n", srv.Addr())

	// First SIGINT/SIGTERM cancels an in-flight solve (or begins the
	// drain when already serving); a second signal kills the process the
	// usual way because stop() restores the default handlers.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	// buildStore produces a fresh store the same way the daemon was
	// started — re-reading -load or re-solving -in — so SIGHUP reloads
	// follow the exact startup path.
	buildStore := func(ctx context.Context) (*serve.RankStore, error) {
		if *load != "" {
			return loadStore(*load)
		}
		return solveStore(ctx, *in, *deltaDays, *slide, *maxWin, cfg, ef.Workers, journal)
	}

	st, err := buildStore(ctx)
	if err != nil {
		var canceled *core.CanceledError
		if errors.As(err, &canceled) {
			fmt.Printf("pmserve: interrupted; partial progress: %d/%d windows solved\n",
				canceled.Completed, canceled.Total)
			shutdown(130)
		}
		// No previous generation to fall back to: startup failures stay
		// fatal rather than degrading into a daemon with nothing to serve.
		fatal(err)
	}
	if err := svc.TryPublish(st); err != nil {
		fatal(err)
	}
	if *load != "" {
		fmt.Printf("pmserve: loaded %d windows over %d vertices from %s\n",
			st.NumWindows(), st.NumVertices(), *load)
	} else {
		fmt.Printf("pmserve: solved %d windows over %d vertices; store published\n",
			st.NumWindows(), st.NumVertices())
	}

	// SIGHUP reloads the store in place: a successful rebuild publishes
	// the next generation (and clears any degraded state); a failed one
	// leaves the current generation serving and marks the daemon
	// degraded, so operators see stale-but-valid answers (X-Stale,
	// /readyz "degraded") instead of an outage.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		defer signal.Stop(hup)
		for {
			select {
			case <-ctx.Done():
				return
			case <-hup:
				fmt.Println("pmserve: SIGHUP received, reloading store")
				st, err := buildStore(ctx)
				if err == nil {
					err = svc.TryPublish(st)
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "pmserve: reload failed, serving previous generation: %v\n", err)
					svc.SetDegraded(fmt.Sprintf("reload failed: %v", err))
					continue
				}
				fmt.Printf("pmserve: reloaded; now serving generation %d (%d windows)\n",
					svc.Store().Generation(), st.NumWindows())
			}
		}
	}()

	<-ctx.Done()
	fmt.Println("pmserve: signal received, draining")
	shutdown(0)
}

// loadStore reads a .pmrs file and builds the immutable query store.
// Corrupt input surfaces as a structured *results.CorruptError, never
// a panic — the file is untrusted.
func loadStore(path string) (*serve.RankStore, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	//pmvet:ignore closecheck -- read-only input; decode errors already surface via the reader
	defer f.Close()
	s, err := results.Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return serve.NewStore(s)
}

// solveStore runs the postmortem engine on the event file and converts
// the finished series into a query store. cfg carries the parsed engine
// flags; the journal is wired into it, so window_done frames stream
// over /events while the HTTP server (already up) answers 503 to /v1
// queries.
func solveStore(ctx context.Context, in string, deltaDays float64, slide int64, maxWin int,
	cfg core.Config, workers int, journal *obs.Journal) (*serve.RankStore, error) {
	l, err := cliutil.ReadLog(in)
	if err != nil {
		return nil, err
	}
	if !cfg.Directed {
		l = l.Symmetrize()
	}
	spec, err := events.Span(l, int64(deltaDays*float64(gen.Day)), slide)
	if err != nil {
		return nil, err
	}
	if maxWin > 0 && spec.Count > maxWin {
		spec.Count = maxWin
	}
	fmt.Printf("pmserve: solving %d windows over %d vertices (%d events)\n",
		spec.Count, l.NumVertices(), l.Len())

	pool := sched.NewPool(workers)
	defer pool.Close()
	cfg.Journal = journal
	eng, err := core.NewEngine(l, spec, cfg, pool)
	if err != nil {
		return nil, err
	}
	s, err := eng.Run(ctx)
	if err != nil {
		return nil, err
	}
	if err := s.CheckExport(); err != nil {
		return nil, err
	}
	return serve.NewStore(s.Export())
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "pmserve: %v\n", err)
	os.Exit(1)
}
