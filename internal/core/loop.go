package core

import (
	"context"

	"pmpr/internal/sched"
)

// forLoop abstracts "run body over [0, n)" so the kernel's chunked
// sweep is written once and executed serially, or forked on the pool
// from the calling worker when the plan forks vertex loops
// (SolvePlan.ForkVertexLoops). n counts chunks of the active list, so
// the grain does too. The body is a sched.Body so loop implementations
// hand it to the scheduler without wrapping it in a fresh closure — the
// kernel binds its body once per unit and the steady-state iteration
// loop stays allocation-free. A serial loop invokes the body with a nil
// worker.
type forLoop func(n int, body sched.Body)

func serialLoop(n int, body sched.Body) {
	if n > 0 {
		body(nil, 0, n)
	}
}

// workerLoop forks vertex loops on w's pool. ctx (nil = never
// canceled) threads the run's cancellation into every nested loop, so
// a canceled solve stops splitting and skips remaining spans at the
// next steal boundary even inside a kernel pass.
func workerLoop(ctx context.Context, w *sched.Worker, grain int, part sched.Partitioner) forLoop {
	return func(n int, body sched.Body) {
		w.ParallelForCtx(ctx, n, grain, part, body)
	}
}
