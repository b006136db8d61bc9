package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"pmpr/internal/events"
	"pmpr/internal/fault"
	"pmpr/internal/obs"
	"pmpr/internal/sched"
)

// slowEngine builds an engine whose solve takes long enough (many
// windows, unreachable tolerance) that a cancellation reliably lands
// mid-solve.
func slowEngine(t *testing.T, cfg Config, pool *sched.Pool) (*Engine, events.WindowSpec) {
	t.Helper()
	l := randomLog(t, 7, 200, 20000, 200000)
	spec, err := events.Span(l, 10000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Opts.Tol = 1e-300 // unreachable: every window runs MaxIter sweeps
	cfg.Opts.MaxIter = 120
	cfg.DiscardRanks = true
	eng, err := NewEngine(l, spec, cfg, pool)
	if err != nil {
		t.Fatal(err)
	}
	return eng, spec
}

// cancelMidSolve returns a context that is canceled as soon as the
// engine's journal reports its first window_done, so the cancel lands
// after real progress whatever the kernel speed. Every solve attempt
// is delayed by a few milliseconds, which both yields the CPU to the
// canceling goroutine and keeps the remaining windows pending until the
// cancel lands. canceledAt delivers the time of the cancel; stop
// disarms the delay and ends the watcher. cfg gets the journal and must
// be used to build the engine afterwards.
func cancelMidSolve(t *testing.T, cfg *Config) (ctx context.Context, canceledAt <-chan time.Time, stop func()) {
	t.Helper()
	j := obs.NewJournal(1024)
	cfg.Journal = j
	sub := j.Subscribe(1024)
	fault.Reset()
	slowWindow := fault.Arm(fault.Rule{Point: PointSolveWindow, Mode: fault.ModeDelay, Delay: 5 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	at := make(chan time.Time, 1)
	go func() {
		for {
			select {
			case e := <-sub.C():
				if e.Type == obs.EvWindowDone {
					at <- time.Now()
					cancel()
					return
				}
			case <-ctx.Done():
				return
			}
		}
	}()
	return ctx, at, func() {
		cancel()
		sub.Close()
		slowWindow()
	}
}

// runLifecycle counts a journal's run_start events and its run_end
// events by status.
func runLifecycle(t *testing.T, j *obs.Journal) (started int, ended map[string]int) {
	t.Helper()
	evs, complete := j.Since(0)
	if !complete {
		t.Fatal("journal evicted events; ring sized too small for the test")
	}
	ended = map[string]int{}
	for _, e := range evs {
		switch e.Type {
		case obs.EvRunStart:
			started++
		case obs.EvRunEnd:
			ended[e.Status]++
		}
	}
	return started, ended
}

// cancelConfigs returns one config per parallel mode, keyed
// "spmv/<mode>" after the engine's one kernel.
func cancelConfigs() map[string]Config {
	out := map[string]Config{}
	for _, mode := range []ParallelMode{AppLevel, WindowLevel, Nested} {
		cfg := DefaultConfig()
		cfg.Mode = mode
		out["spmv/"+mode.String()] = cfg
	}
	return out
}

func TestRunCancelMidSolve(t *testing.T) {
	for name, cfg := range cancelConfigs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			pool := sched.NewPool(4)
			defer pool.Close()
			ctx, canceledAt, stop := cancelMidSolve(t, &cfg)
			defer stop()
			eng, spec := slowEngine(t, cfg, pool)
			s, err := eng.Run(ctx)
			returned := time.Now()
			stop()
			if s != nil {
				t.Fatal("canceled run returned a series")
			}
			var ce *CanceledError
			if !errors.As(err, &ce) {
				t.Fatalf("err = %v, want *CanceledError", err)
			}
			if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
				t.Fatalf("err %v must match ErrCanceled and context.Canceled", err)
			}
			if ce.Total != spec.Count || ce.Completed < 1 || ce.Completed >= ce.Total {
				t.Fatalf("progress %d/%d out of range (windows=%d)", ce.Completed, ce.Total, spec.Count)
			}
			// Cancellation is cooperative at window/iteration
			// boundaries; with this workload's tiny windows the solve must
			// stop well inside 100ms of the cancel signal.
			if lag := returned.Sub(<-canceledAt); lag > 110*time.Millisecond {
				t.Fatalf("Run returned %v after cancel; want < 100ms past the signal", lag)
			}
			if _, ended := runLifecycle(t, cfg.Journal); ended["canceled"] != 1 {
				t.Fatalf("run_end{canceled} count = %d, want 1 (%v)", ended["canceled"], ended)
			}

			// The arena must be consistent after the cancel path: every
			// buffer the kernels drew was returned, so a full re-run on
			// the same engine succeeds and ends with zero outstanding
			// buffers relative to its own steady state.
			s, err = eng.Run(context.Background())
			if err != nil {
				t.Fatalf("re-run after cancel: %v", err)
			}
			if s.Len() != spec.Count {
				t.Fatalf("re-run solved %d of %d windows", s.Len(), spec.Count)
			}
			if _, ended := runLifecycle(t, cfg.Journal); ended["completed"] != 1 {
				t.Fatalf("run_end{completed} count = %d, want 1 (%v)", ended["completed"], ended)
			}
		})
	}
}

func TestRunCancelNoGoroutineLeak(t *testing.T) {
	pool := sched.NewPool(4)
	cfg := DefaultConfig()
	cfg.Mode = Nested
	eng, _ := slowEngine(t, cfg, pool)
	// Warm up: pool workers and the runtime's background goroutines
	// settle before we take the baseline.
	ctx0, cancel0 := context.WithCancel(context.Background())
	cancel0()
	_, _ = eng.Run(ctx0)
	time.Sleep(20 * time.Millisecond)
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(5 * time.Millisecond)
			cancel()
		}()
		if _, err := eng.Run(ctx); err == nil {
			// The workload is sized to outlast 5ms, but a loaded CI
			// machine could finish first; that's not a leak.
			t.Log("run finished before cancel; continuing")
		}
		cancel()
	}
	pool.Close()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutine leak: before=%d after=%d", before, runtime.NumGoroutine())
}

func TestRunCancelScratchConsistent(t *testing.T) {
	// The cancel path must return every buffer the kernels drew: under
	// DiscardRanks nothing outlives a Run, so the arena has no buffer
	// checked out after the canceled Run or after either full re-run.
	// (Misses are not asserted here: in nested mode steal order decides
	// which worker's free list serves which unit, so a steady-state miss
	// is legitimate; TestDiscardRanksSteadyStateHasZeroMisses checks
	// misses on a serial engine.)
	pool := sched.NewPool(4)
	defer pool.Close()
	cfg := DefaultConfig()
	cfg.Mode = Nested
	ctx, _, stop := cancelMidSolve(t, &cfg)
	defer stop()
	eng, _ := slowEngine(t, cfg, pool)
	_, err := eng.Run(ctx)
	stop()
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if st := eng.ScratchStats(); st.Outstanding() != 0 {
		t.Fatalf("%d buffers still checked out after the canceled run: %+v", st.Outstanding(), st)
	}
	for i := 1; i <= 2; i++ {
		if _, err := eng.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if st := eng.ScratchStats(); st.Outstanding() != 0 {
			t.Fatalf("%d buffers still checked out after re-run %d: %+v", st.Outstanding(), i, st)
		}
	}
}

func TestRunSequentialRerunsSupported(t *testing.T) {
	// Run twice on one engine: both must succeed and agree (the
	// representation is read-only; the arena recycles between runs).
	l := randomLog(t, 11, 60, 3000, 30000)
	spec, err := events.Span(l, 6000, 1500)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Journal = obs.NewJournal(0)
	eng, err := NewEngine(l, spec, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s2, err := eng.Run(context.Background())
	if err != nil {
		t.Fatalf("second Run on the same engine: %v", err)
	}
	if s1.Len() != s2.Len() {
		t.Fatalf("run lengths differ: %d vs %d", s1.Len(), s2.Len())
	}
	for w := 0; w < s1.Len(); w++ {
		a, b := s1.Window(w), s2.Window(w)
		if a.Iterations != b.Iterations || a.ActiveVertices != b.ActiveVertices {
			t.Fatalf("window %d: runs disagree (%+v vs %+v)", w, a, b)
		}
		av, bv := a.Dense(l.NumVertices()), b.Dense(l.NumVertices())
		for v := range av {
			if av[v] != bv[v] {
				t.Fatalf("window %d vertex %d: %v vs %v", w, v, av[v], bv[v])
			}
		}
	}
	if started, _ := runLifecycle(t, cfg.Journal); started != 2 {
		t.Fatalf("run_start count = %d, want 2", started)
	}
}

func TestRunConcurrentCallsRejected(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	cfg := DefaultConfig()
	cfg.Mode = WindowLevel
	eng, _ := slowEngine(t, cfg, pool)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		close(started)
		_, err := eng.Run(ctx)
		done <- err
	}()
	<-started
	// Poll until the overlapping call observes the running flag; the
	// first Run is busy for much longer than this loop.
	var overlapped bool
	for i := 0; i < 1000; i++ {
		if _, err := eng.Run(ctx); errors.Is(err, ErrConcurrentRun) {
			overlapped = true
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	cancel()
	<-done
	if !overlapped {
		t.Fatal("overlapping Run never returned ErrConcurrentRun")
	}
	// The flag clears once the first call returns.
	if _, err := eng.Run(context.Background()); err != nil {
		t.Fatalf("run after overlap rejection: %v", err)
	}
}

func TestCanceledErrorUnwrap(t *testing.T) {
	ce := &CanceledError{Completed: 3, Total: 10, Cause: context.DeadlineExceeded}
	if !errors.Is(ce, ErrCanceled) {
		t.Fatal("CanceledError must match ErrCanceled")
	}
	if !errors.Is(ce, context.DeadlineExceeded) {
		t.Fatal("CanceledError must expose its cause")
	}
	bare := &CanceledError{Completed: 0, Total: 5}
	if !errors.Is(bare, ErrCanceled) {
		t.Fatal("cause-less CanceledError must still match ErrCanceled")
	}
}
