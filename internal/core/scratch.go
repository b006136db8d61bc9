package core

import (
	"sync"
	"sync/atomic"

	"pmpr/internal/sched"
	"pmpr/internal/tcsr"
)

// This file implements the engine's scratch-memory arena. The kernels
// used to allocate their working vectors (x/y/z, inverse out-degrees,
// activity flags, per-leaf accumulators) on every window or batch
// solve; under the default nested mode with a small grain that is
// millions of short-lived allocations per run. The arena replaces all
// of them with reusable per-worker buffers:
//
//   - Every buffer that does not escape a solve is taken from a
//     free list and returned when the solve finishes.
//   - Rank vectors escape (they become WindowResult.ranks and feed the
//     next window's partial initialization), so they stay checked out
//     until the consumer recycles them — immediately under
//     Config.DiscardRanks, never when results are retained.
//   - Leaf closures never allocate: cross-leaf reductions write into
//     lane-indexed slots (one lane per pool worker) that are summed
//     serially after the loop, replacing the old atomic accumulators.
//
// Ownership: a scratchBuf is confined to the goroutine of the
// window-loop worker that acquired it (buffers are keyed by
// sched.Worker ID), so its free lists need no locking — including
// under re-entrancy, when a worker helping a nested loop steals
// another window-range span and starts a second solve on the same
// scratchBuf: the inner solve simply pops further buffers while the
// outer solve's remain checked out. Serial and app-level callers have
// no worker identity and draw a scratchBuf from a sync.Pool instead.

// scratchArena owns one scratchBuf per pool worker plus a pooled path
// for loops running outside the pool. An Engine creates one arena and
// keeps it across Run calls, so steady-state iteration is
// allocation-free from the second window onward.
type scratchArena struct {
	perWorker []scratchBuf
	pooled    sync.Pool
	lanes     int // reduction lanes (pool workers, min 1)

	gets   atomic.Int64 // buffer requests served
	misses atomic.Int64 // requests that had to allocate fresh memory
	puts   atomic.Int64 // buffers handed back
}

// ScratchStats is a snapshot of the arena's buffer-reuse counters.
// Hits = Gets - Misses; a warmed-up engine solving with DiscardRanks
// should report a miss delta of zero across Run calls. Gets - Puts is
// the number of buffers still checked out: zero after every Run under
// DiscardRanks, when no rank vector outlives its consumer.
type ScratchStats struct {
	Gets   int64 `json:"gets"`
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Puts   int64 `json:"puts"`
}

// Outstanding returns how many buffers are checked out (Gets - Puts).
func (s ScratchStats) Outstanding() int64 { return s.Gets - s.Puts }

// Delta returns the counter movement since before.
func (s ScratchStats) Delta(before ScratchStats) ScratchStats {
	return ScratchStats{
		Gets:   s.Gets - before.Gets,
		Hits:   s.Hits - before.Hits,
		Misses: s.Misses - before.Misses,
		Puts:   s.Puts - before.Puts,
	}
}

func newScratchArena(workers int) *scratchArena {
	lanes := workers
	if lanes < 1 {
		lanes = 1
	}
	a := &scratchArena{perWorker: make([]scratchBuf, workers), lanes: lanes}
	for i := range a.perWorker {
		a.perWorker[i].arena = a
	}
	a.pooled.New = func() interface{} { return &scratchBuf{arena: a} }
	return a
}

// stats snapshots the reuse counters.
func (a *scratchArena) stats() ScratchStats {
	gets, misses := a.gets.Load(), a.misses.Load()
	return ScratchStats{Gets: gets, Hits: gets - misses, Misses: misses, Puts: a.puts.Load()}
}

// acquire returns the scratch buffer of window-loop worker wid and a
// release function. wid < 0 (serial and app-level ranges, which run
// without a worker identity) takes the sync.Pool-backed path; release
// is a no-op for the per-worker path.
func (a *scratchArena) acquire(wid int) (*scratchBuf, func()) {
	if wid >= 0 && wid < len(a.perWorker) {
		return &a.perWorker[wid], func() {}
	}
	sb := a.pooled.Get().(*scratchBuf)
	return sb, func() { a.pooled.Put(sb) }
}

// laneOf maps the worker executing a leaf to its reduction lane; nil
// (a serial loop) is lane 0.
func laneOf(w *sched.Worker) int {
	if w == nil {
		return 0
	}
	return w.ID()
}

// freeList holds reusable slices of one element type. get returns a
// zeroed slice of length n using best fit — the smallest sufficient
// capacity, most recently returned among equals — so a small request
// never consumes a large buffer that a later request (e.g. the run
// index's edge-sized columns) needs; under a repeated request sequence
// the steady state then has zero misses. put makes a slice available
// for reuse. Not safe for concurrent use — each scratchBuf is
// goroutine-confined (see the file comment).
type freeList[T any] struct {
	free [][]T
}

func (l *freeList[T]) get(a *scratchArena, n int) []T {
	a.gets.Add(1)
	best := -1
	for i := len(l.free) - 1; i >= 0; i-- {
		c := cap(l.free[i])
		if c < n {
			continue
		}
		if best < 0 || c < cap(l.free[best]) {
			best = i
		}
		if c == n {
			break // exact fit; scanning back-to-front keeps LIFO ties
		}
	}
	if best >= 0 {
		s := l.free[best][:n]
		l.free[best] = l.free[len(l.free)-1]
		l.free[len(l.free)-1] = nil
		l.free = l.free[:len(l.free)-1]
		clear(s)
		return s
	}
	a.misses.Add(1)
	return make([]T, n)
}

func (l *freeList[T]) put(a *scratchArena, s []T) {
	a.puts.Add(1)
	if cap(s) == 0 {
		return
	}
	l.free = append(l.free, s)
}

// scratchBuf bundles the free lists of every buffer shape the kernels
// use. Acquired via scratchArena.acquire; see the file comment for the
// confinement rules that make it lock-free.
type scratchBuf struct {
	arena *scratchArena

	f64     freeList[float64]
	i64     freeList[int64]
	i32     freeList[int32]
	u64     freeList[uint64]
	ints    freeList[int]
	bools   freeList[bool]
	vecs    freeList[[]float64]
	results freeList[WindowResult]
	views   freeList[tcsr.SolveView]
}

// lanes returns the number of reduction lanes leaf bodies may index.
func (b *scratchBuf) lanes() int { return b.arena.lanes }

func (b *scratchBuf) getF64(n int) []float64 { return b.f64.get(b.arena, n) }
func (b *scratchBuf) putF64(s []float64)     { b.f64.put(b.arena, s) }

func (b *scratchBuf) getI64(n int) []int64 { return b.i64.get(b.arena, n) }
func (b *scratchBuf) putI64(s []int64)     { b.i64.put(b.arena, s) }

func (b *scratchBuf) getI32(n int) []int32 { return b.i32.get(b.arena, n) }
func (b *scratchBuf) putI32(s []int32)     { b.i32.put(b.arena, s) }

func (b *scratchBuf) getU64(n int) []uint64 { return b.u64.get(b.arena, n) }
func (b *scratchBuf) putU64(s []uint64)     { b.u64.put(b.arena, s) }

func (b *scratchBuf) getInt(n int) []int { return b.ints.get(b.arena, n) }
func (b *scratchBuf) putInt(s []int)     { b.ints.put(b.arena, s) }

func (b *scratchBuf) getBool(n int) []bool { return b.bools.get(b.arena, n) }
func (b *scratchBuf) putBool(s []bool)     { b.bools.put(b.arena, s) }

// getVecs/putVecs manage [][]float64 holders (SpMM rank staging). put
// clears the elements first so the free list never pins rank vectors.
func (b *scratchBuf) getVecs(n int) [][]float64 { return b.vecs.get(b.arena, n) }
func (b *scratchBuf) putVecs(s [][]float64) {
	clear(s)
	b.vecs.put(b.arena, s)
}

// getResults/putResults manage []WindowResult staging for SpMM batches.
// put clears the elements so recycled entries never pin rank vectors.
func (b *scratchBuf) getResults(n int) []WindowResult { return b.results.get(b.arena, n) }
func (b *scratchBuf) putResults(s []WindowResult) {
	clear(s)
	b.results.put(b.arena, s)
}

// getViews/putViews manage the batch drivers' []tcsr.SolveView staging.
// put clears the elements so the free list never pins a multi-window
// graph through its view pointers.
func (b *scratchBuf) getViews(n int) []tcsr.SolveView { return b.views.get(b.arena, n) }
func (b *scratchBuf) putViews(s []tcsr.SolveView) {
	clear(s)
	b.views.put(b.arena, s)
}
