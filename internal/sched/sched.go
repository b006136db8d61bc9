// Package sched provides the work-stealing fork-join scheduler that
// plays the role of Intel TBB in the paper (Sec. 4.3). Both levels of
// parallelism — across time windows and inside a PageRank kernel — run
// on one shared Pool, and nested parallel-for is supported re-entrantly
// so the paper's "nested parallelization" maps onto it directly.
//
// Ranges are split lazily: a worker owning [lo, hi) splits it in half
// when the partitioning policy says so, keeps one half, and exposes the
// other for thieves. Because splits preserve contiguity, the worker that
// processed window Gi-1 usually also processes Gi, which is what makes
// partial initialization effective under window-level parallelism
// (the paper's argument for a work-stealing scheduler over OpenMP's
// dynamic scheduler).
//
// Three partitioners mirror TBB's:
//
//   - Simple: always split until a range is at most the grain size.
//   - Auto: split only while there is demand (idle workers), except that
//     ranges above an initial chunk (len/4P) are always split; large
//     grains therefore behave like coarse static chunks.
//   - Static: ranges are pre-assigned to workers contiguously and are
//     never stolen.
package sched

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// PanicError carries a panic recovered from a loop body that executed
// on a pool worker. Leaf bodies run on whichever worker pops their
// span, so an unhandled panic would unwind an unrelated worker
// goroutine and kill the process; instead the pool captures the first
// panic of a job, abandons the job's remaining spans, and re-raises a
// *PanicError at the submitting ParallelFor/Run call site — the
// goroutine whose defers can actually handle it. Value is the original
// panic value and Stack the stack of the panicking leaf.
type PanicError struct {
	Value any
	Stack []byte
}

// Error renders the captured panic.
func (e *PanicError) Error() string { return fmt.Sprintf("sched: panic in loop body: %v", e.Value) }

// Unwrap exposes an underlying error panic value to errors.Is/As.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Partitioner selects the range-splitting policy of a parallel loop.
type Partitioner int

const (
	// Auto splits on demand, like tbb::auto_partitioner.
	Auto Partitioner = iota
	// Simple always splits down to the grain, like tbb::simple_partitioner.
	Simple
	// Static pre-assigns contiguous blocks to workers with no stealing,
	// like tbb::static_partitioner.
	Static
)

// String names the partitioner as used in reports and CLI flags.
func (p Partitioner) String() string {
	switch p {
	case Auto:
		return "auto"
	case Simple:
		return "simple"
	case Static:
		return "static"
	default:
		return fmt.Sprintf("Partitioner(%d)", int(p))
	}
}

// Body is the leaf function of a parallel loop; it receives the worker
// executing it (for nested ParallelFor calls) and a half-open index
// range [lo, hi).
type Body func(w *Worker, lo, hi int)

type job struct {
	body    Body
	grain   int
	part    Partitioner
	initial int // auto: ranges longer than this always split
	// ctx carries the loop's cancellation signal; nil means the loop can
	// never be canceled (the zero-overhead path of ParallelFor). Spans of
	// a canceled job are still popped and finished — so pending drains
	// and submitters unblock — but their bodies are skipped.
	ctx     context.Context
	pending atomic.Int64
	// doneFlag is the completion signal polled by nested submitters
	// (helpUntil); done is non-nil only for external submissions, which
	// block on the channel instead of spinning. Keeping nested loops
	// channel-free lets job objects be pooled, so a steady state of
	// nested ParallelFor calls (the kernels' inner vertex loops) does
	// not allocate.
	doneFlag atomic.Bool
	done     chan struct{}
	// panicVal holds the first panic captured from a leaf body; later
	// spans of the job are drained without executing (like a canceled
	// job) and the submitter re-raises the value after the join.
	panicVal atomic.Pointer[PanicError]
}

// execBody runs one leaf call of the job's body, capturing a panic
// into panicVal (first one wins) instead of letting it unwind the
// worker goroutine.
func (j *job) execBody(w *Worker, lo, hi int) {
	defer func() {
		if rec := recover(); rec != nil {
			j.panicVal.CompareAndSwap(nil, &PanicError{Value: rec, Stack: debug.Stack()})
		}
	}()
	j.body(w, lo, hi)
}

// rethrow re-raises a captured leaf panic at the submitter, after the
// join has drained every span. Callers must not touch j afterwards.
func (j *job) rethrow(p *Pool) {
	if pe := j.panicVal.Load(); pe != nil {
		p.recycleJob(j)
		// Deliberate propagation: the panic originated in caller-supplied
		// code and belongs on the caller's goroutine.
		//pmvet:ignore panic -- re-raising a captured loop-body panic at the submitting call site
		panic(pe)
	}
}

func (j *job) finish(leaves int64) {
	if j.pending.Add(-leaves) == 0 {
		// Read the channel before publishing completion: the waiter may
		// recycle the job the instant doneFlag is set, so this is the
		// last access to j's fields.
		done := j.done
		j.doneFlag.Store(true)
		if done != nil {
			close(done)
		}
	}
}

// canceled reports whether the job should stop executing leaves: its
// context has been canceled, or a leaf already panicked (a panicked
// job abandons its remaining work the same way a canceled one does).
// It is polled cooperatively by the work-stealing loop before every
// leaf execution, so an abandoned loop stops promptly at the next span
// boundary (already-running leaf bodies finish).
func (j *job) canceled() bool {
	if j.panicVal.Load() != nil {
		return true
	}
	return j.ctx != nil && j.ctx.Err() != nil
}

type span struct {
	lo, hi int
	job    *job
}

type deque struct {
	mu    sync.Mutex
	items []span
}

func (d *deque) pushBottom(s span) {
	d.mu.Lock()
	d.items = append(d.items, s)
	d.mu.Unlock()
}

func (d *deque) popBottom() (span, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.items) == 0 {
		return span{}, false
	}
	s := d.items[len(d.items)-1]
	d.items = d.items[:len(d.items)-1]
	return s, true
}

// stealTop removes the oldest stealable span. Spans of Static jobs are
// pinned to their worker and skipped.
func (d *deque) stealTop() (span, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := 0; i < len(d.items); i++ {
		if d.items[i].job.part == Static {
			continue
		}
		s := d.items[i]
		d.items = append(d.items[:i], d.items[i+1:]...)
		return s, true
	}
	return span{}, false
}

// Pool is a fixed set of workers processing fork-join range tasks.
type Pool struct {
	workers []*Worker

	// jobPool recycles job descriptors: a job is returned once its
	// submitter has observed completion, at which point no span, deque,
	// or worker references it (pending counts every pushed span, so
	// pending reaching zero means every span was popped and finished).
	jobPool sync.Pool

	mu      sync.Mutex
	cond    *sync.Cond
	sleeper int
	closed  bool

	idle atomic.Int32 // workers currently out of work (demand signal for Auto)

	metricsOn atomic.Bool
	metrics   []workerMetrics // one padded slot per worker
}

// Worker is one of the pool's executors. The Body of a loop may call
// ParallelFor on its Worker to fork a nested loop on the same pool.
type Worker struct {
	pool *Pool
	id   int
	dq   deque
	rng  *rand.Rand
	// depth tracks process() nesting (single goroutine, no atomics):
	// busy time is only accumulated at depth 1 so spans executed while
	// helping a nested loop are not double-counted.
	depth int
}

// ID returns the worker index in [0, Pool.NumWorkers()).
func (w *Worker) ID() int { return w.id }

// Pool returns the pool this worker belongs to.
func (w *Worker) Pool() *Pool { return w.pool }

// NewPool starts a pool with the given number of workers; n <= 0 means
// runtime.GOMAXPROCS(0). Call Close when done.
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{}
	p.cond = sync.NewCond(&p.mu)
	p.metrics = make([]workerMetrics, n)
	p.workers = make([]*Worker, n)
	for i := 0; i < n; i++ {
		p.workers[i] = &Worker{pool: p, id: i, rng: rand.New(rand.NewSource(int64(i)*0x9E3779B9 + 1))}
	}
	for _, w := range p.workers {
		// Workers exit via the pool's closed flag: Close sets it under
		// p.mu and Broadcasts; run re-checks it at every sleep/wake
		// edge. TestCancelNoGoroutineLeak checks the join at runtime.
		go w.run()
	}
	return p
}

// NumWorkers returns the number of workers.
func (p *Pool) NumWorkers() int { return len(p.workers) }

// Close shuts the workers down. Pending work is abandoned; only call
// Close after all ParallelFor calls have returned.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
}

func (p *Pool) wake() {
	p.mu.Lock()
	sleeping := p.sleeper > 0
	p.mu.Unlock()
	if sleeping {
		p.cond.Broadcast()
	}
}

func (w *Worker) run() {
	p := w.pool
	for {
		if s, ok := w.findWork(); ok {
			w.process(s)
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return
		}
		// Re-check under the lock to avoid missing a wake between the
		// failed search and the wait.
		if s, ok := w.findWork(); ok {
			p.mu.Unlock()
			w.process(s)
			continue
		}
		p.sleeper++
		p.idle.Add(1)
		var t0 time.Time
		if timed := p.metricsOn.Load(); timed {
			t0 = time.Now()
		}
		p.cond.Wait()
		if !t0.IsZero() {
			p.metrics[w.id].idleNanos.Add(int64(time.Since(t0)))
		}
		p.idle.Add(-1)
		p.sleeper--
		closed := p.closed
		p.mu.Unlock()
		if closed {
			return
		}
	}
}

// findWork pops from the worker's own deque, then tries to steal.
func (w *Worker) findWork() (span, bool) {
	if s, ok := w.dq.popBottom(); ok {
		return s, true
	}
	p := w.pool
	n := len(p.workers)
	off := w.rng.Intn(n)
	for i := 0; i < n; i++ {
		victim := p.workers[(off+i)%n]
		if victim == w {
			continue
		}
		if s, ok := victim.dq.stealTop(); ok {
			if p.metricsOn.Load() {
				p.metrics[w.id].steals.Add(1)
			}
			return s, true
		}
	}
	return span{}, false
}

// shouldSplit decides whether the owning worker should split s before
// executing, per the job's partitioner.
func (w *Worker) shouldSplit(s span) bool {
	length := s.hi - s.lo
	j := s.job
	if length <= j.grain || length < 2 {
		return false
	}
	switch j.part {
	case Simple:
		return true
	case Static:
		return false
	default: // Auto
		if length > j.initial {
			return true
		}
		return w.pool.idle.Load() > 0
	}
}

func (w *Worker) process(s span) {
	if s.job.canceled() {
		// Cooperative cancellation: drain the span without executing its
		// body, so pending reaches zero and the submitter unblocks.
		s.job.finish(1)
		return
	}
	var m *workerMetrics
	var t0 time.Time
	if w.pool.metricsOn.Load() {
		m = &w.pool.metrics[w.id]
		w.depth++
		if w.depth == 1 {
			t0 = time.Now()
		}
	}
	for w.shouldSplit(s) {
		mid := s.lo + (s.hi-s.lo)/2
		s.job.pending.Add(1)
		w.dq.pushBottom(span{lo: mid, hi: s.hi, job: s.job})
		w.pool.wake()
		s.hi = mid
		if m != nil {
			m.splits.Add(1)
		}
	}
	j := s.job
	leaves := int64(1)
	if j.part == Static && s.hi-s.lo > j.grain {
		// Execute in grain-size leaf calls, mirroring how TBB's static
		// partitioner still honors the range grain.
		leaves = 0
		for lo := s.lo; lo < s.hi; lo += j.grain {
			hi := lo + j.grain
			if hi > s.hi {
				hi = s.hi
			}
			if j.canceled() {
				// Remaining leaves of a canceled static span are dropped;
				// the single span-level finish below still runs.
				break
			}
			j.execBody(w, lo, hi)
			leaves++
		}
	} else {
		j.execBody(w, s.lo, s.hi)
	}
	if m != nil {
		m.tasks.Add(leaves)
		if w.depth == 1 {
			m.busyNanos.Add(int64(time.Since(t0)))
		}
		w.depth--
	}
	j.finish(1)
}

// helpUntil processes available work until the job completes. It is the
// blocking point for nested ParallelFor calls: the worker keeps the pool
// busy (possibly with spans of other jobs) instead of sleeping.
func (w *Worker) helpUntil(j *job) {
	for !j.doneFlag.Load() {
		if s, ok := w.findWork(); ok {
			w.process(s)
		} else if !j.doneFlag.Load() {
			runtime.Gosched()
		}
	}
}

// InitialSpan is the span length above which the Auto partitioner
// splits a loop of n iterations on a pool of workers workers whether or
// not a worker is idle: a quarter of each worker's even share, but
// never below grain. Planners that cut a loop into fixed chunks ahead
// of time use it to match the chunks Auto would start from.
func InitialSpan(n, workers, grain int) int {
	return max(grain, n/(4*workers))
}

// newJob prepares a (possibly recycled) job descriptor. The returned
// job has no completion channel; external submitters attach one before
// seeding.
func (p *Pool) newJob(ctx context.Context, n, grain int, part Partitioner, body Body) *job {
	if grain < 1 {
		grain = 1
	}
	initial := InitialSpan(n, len(p.workers), grain)
	j, _ := p.jobPool.Get().(*job)
	if j == nil {
		j = &job{}
	}
	j.body, j.grain, j.part, j.initial = body, grain, part, initial
	j.ctx = ctx
	j.doneFlag.Store(false)
	j.done = nil
	j.panicVal.Store(nil)
	return j
}

// recycleJob returns a completed job to the pool. Only the submitter
// may call it, after <-j.done or helpUntil has returned.
func (p *Pool) recycleJob(j *job) {
	j.body = nil
	j.done = nil
	j.ctx = nil
	p.jobPool.Put(j)
}

// seed distributes the root spans of a job. For Static the range is cut
// into one contiguous block per worker (no stealing); otherwise the
// whole range is a single span pushed to the submitting worker (or
// worker 0 for external submissions) and thieves carve it up.
func (p *Pool) seed(j *job, n int, home *Worker) {
	if j.part == Static {
		nw := len(p.workers)
		per := (n + nw - 1) / nw
		if per < j.grain {
			per = j.grain
		}
		// Publish the full span count on pending BEFORE pushing any
		// span (mirroring the non-static path's increment-then-push
		// order): a worker that pops and finishes an early span while
		// later spans are still unpushed must never observe a transient
		// count that lets its finish reach zero and close the job with
		// leaves still pending.
		count := int64((n + per - 1) / per)
		j.pending.Add(count)
		for lo, i := 0, 0; lo < n; lo, i = lo+per, i+1 {
			hi := lo + per
			if hi > n {
				hi = n
			}
			p.workers[i%len(p.workers)].dq.pushBottom(span{lo: lo, hi: hi, job: j})
		}
		// Broadcast under the lock: a worker between its last failed
		// work search and cond.Wait holds p.mu, so acquiring it here
		// guarantees the worker either saw the pushed spans or is
		// already waiting and receives this wakeup.
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
		return
	}
	j.pending.Add(1)
	target := home
	if target == nil {
		target = p.workers[0]
	}
	target.dq.pushBottom(span{lo: 0, hi: n, job: j})
	p.wake()
}

// ParallelFor runs body over [0, n) using the pool and blocks until all
// leaves have executed. It is safe to call from any goroutine that is
// not a pool worker; inside a Body, call Worker.ParallelFor instead.
func (p *Pool) ParallelFor(n, grain int, part Partitioner, body Body) {
	p.ParallelForCtx(nil, n, grain, part, body)
}

// ParallelForCtx is ParallelFor with cooperative cancellation: once ctx
// is canceled, workers stop executing this loop's remaining leaves
// (leaf bodies already running finish) and the call returns ctx.Err().
// A nil ctx never cancels. After a non-nil error the loop's side
// effects are partial; callers must discard them.
func (p *Pool) ParallelForCtx(ctx context.Context, n, grain int, part Partitioner, body Body) error {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	if n <= 0 {
		return nil
	}
	j := p.newJob(ctx, n, grain, part, body)
	j.done = make(chan struct{})
	p.seed(j, n, nil)
	<-j.done
	j.rethrow(p)
	p.recycleJob(j)
	if ctx != nil {
		return ctx.Err()
	}
	return nil
}

// ParallelFor runs a nested loop from inside a Body. The calling worker
// participates: it processes spans (of this or other jobs) until the
// nested loop completes.
func (w *Worker) ParallelFor(n, grain int, part Partitioner, body Body) {
	w.ParallelForCtx(nil, n, grain, part, body)
}

// ParallelForCtx is Worker.ParallelFor with cooperative cancellation,
// with the same contract as Pool.ParallelForCtx. It stays on the
// nested (channel-free, allocation-free) completion path, so the
// kernels' per-iteration vertex loops can carry a context without
// giving up the pooled-job steady state.
func (w *Worker) ParallelForCtx(ctx context.Context, n, grain int, part Partitioner, body Body) error {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	if n <= 0 {
		return nil
	}
	j := w.pool.newJob(ctx, n, grain, part, body)
	w.pool.seed(j, n, w)
	w.helpUntil(j)
	j.rethrow(w.pool)
	w.pool.recycleJob(j)
	if ctx != nil {
		return ctx.Err()
	}
	return nil
}

// Run executes fn on some pool worker and waits for it; it is a
// convenience for moving a serial computation onto the pool so that
// nested ParallelFor calls have a Worker context.
func (p *Pool) Run(fn func(w *Worker)) {
	p.ParallelFor(1, 1, Auto, func(w *Worker, _, _ int) { fn(w) })
}

// RunCtx is Run with a context: fn still runs to completion once
// started (cancellation inside fn is fn's business, via the loops it
// forks), but a ctx canceled before a worker picks the task up skips
// fn entirely and RunCtx returns ctx.Err(). A nil ctx never cancels.
func (p *Pool) RunCtx(ctx context.Context, fn func(w *Worker)) error {
	return p.ParallelForCtx(ctx, 1, 1, Auto, func(w *Worker, _, _ int) { fn(w) })
}
