package core

import (
	"sync"
	"sync/atomic"
)

// This file implements the engine's scratch memory: one workspace per
// running unit. solveUnit takes a workspace when its warm-start chain
// starts and gives it back when the chain ends. A workspace holds one
// buffer per role (the chain index's arrays, the kernel's z, Jacobi's
// zin and chunk sums, conjugate gradient's r, p and q and its peel's d,
// b, order, parents and counts), grown only when
// a unit needs more and zeroed when a unit sizes it, plus a small stash
// of dense rank vectors. A rank
// vector never leaves its unit: it feeds the next window's partial
// initialization and the checkpoint record, and the window keeps its
// ranks as results.WindowRanks entries, so the unit recycles the vector
// once its successor has consumed it. A workspace is confined to its
// unit's goroutine, so only the arena's stack of idle workspaces needs
// a lock; a worker that steals a second unit while it helps a nested
// loop takes a second workspace.

// stashSize bounds the rank stash: a unit holds at most its
// predecessor's vector and x at once.
const stashSize = 2

// scratchArena owns the engine's workspaces, at most one per unit that
// ran concurrently. An Engine keeps one arena across Run calls, so
// steady-state iteration is allocation-free.
type scratchArena struct {
	mu   sync.Mutex
	idle []*workspace // workspaces no running unit holds

	gets   atomic.Int64 // buffer requests served
	misses atomic.Int64 // requests that had to allocate fresh memory
	puts   atomic.Int64 // buffers handed back
}

// ScratchStats is a snapshot of the arena's buffer-reuse counters. A
// get is a role-buffer sizing or a rank-vector take, a miss a get that
// allocated, a put a recycled rank vector or a role buffer given back
// with its workspace; Hits = Gets - Misses. Gets - Puts is the number
// of buffers checked out: zero after every Run in which no window
// attempt panicked.
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

// stats snapshots the reuse counters.
func (a *scratchArena) stats() ScratchStats {
	gets, misses := a.gets.Load(), a.misses.Load()
	return ScratchStats{Gets: gets, Hits: gets - misses, Misses: misses, Puts: a.puts.Load()}
}

// take hands a unit an idle workspace, or a new one when every
// workspace is held by a running unit.
func (a *scratchArena) take() *workspace {
	a.mu.Lock()
	defer a.mu.Unlock()
	if n := len(a.idle); n > 0 {
		ws := a.idle[n-1]
		a.idle = a.idle[:n-1]
		return ws
	}
	return &workspace{arena: a, ranks: make([][]float64, 0, stashSize)}
}

// give puts a unit's workspace, and the role buffers it sized, back.
func (a *scratchArena) give(ws *workspace) {
	a.puts.Add(ws.sized)
	ws.sized = 0
	a.mu.Lock()
	defer a.mu.Unlock()
	a.idle = append(a.idle, ws)
}

// workspace is one running unit's working memory.
type workspace struct {
	arena *scratchArena

	// The chain index's buffers (chainIndex.open): per-vertex run ends,
	// inverse out-degrees, and one int32 buffer its arrays are carved
	// from.
	end    []int64
	invdeg []float64
	index  []int32
	// z is the kernel's rank vector scaled by inverse out-degree; zin
	// is Jacobi's previous-sweep z and sums its chunk slots; r, p and q
	// are conjugate gradient's residual, direction and M·p.
	z, zin  []float64
	sums    []chunkSum
	r, p, q []float64
	// d and b are the peeled system's diagonal and right-hand side,
	// order the elimination order and then the core, parent each peeled
	// vertex's parent and left the remaining-neighbour counts
	// (spmvKernel.peel).
	d, b                []float64
	order, parent, left []int32

	ranks [][]float64 // the rank stash, at most stashSize vectors
	sized int64       // role buffers sized for the running unit
}

// size returns *buf resized to n zeroed entries, growing it only when
// n exceeds its capacity.
func size[T any](ws *workspace, buf *[]T, n int) []T {
	a := ws.arena
	a.gets.Add(1)
	ws.sized++
	if cap(*buf) < n {
		a.misses.Add(1)
		*buf = make([]T, n)
	} else {
		*buf = (*buf)[:n]
		clear(*buf)
	}
	return *buf
}

// rank returns a zeroed rank vector of length n: the smallest stashed
// vector that fits, or a fresh one. A fresh vector replaces a stashed
// one that did not fit, so the stash never holds more vectors than a
// unit has used at once.
func (ws *workspace) rank(n int) []float64 {
	a := ws.arena
	a.gets.Add(1)
	best := -1
	for i, s := range ws.ranks {
		if c := cap(s); c >= n && (best < 0 || c < cap(ws.ranks[best])) {
			best = i
		}
	}
	last := len(ws.ranks) - 1
	if best < 0 {
		a.misses.Add(1)
		if last >= 0 {
			ws.ranks[last] = nil
			ws.ranks = ws.ranks[:last]
		}
		return make([]float64, n)
	}
	s := ws.ranks[best][:n]
	ws.ranks[best], ws.ranks[last] = ws.ranks[last], nil
	ws.ranks = ws.ranks[:last]
	clear(s)
	return s
}

// recycle stashes a rank vector nothing will read again.
func (ws *workspace) recycle(s []float64) {
	ws.arena.puts.Add(1)
	if len(ws.ranks) < stashSize {
		ws.ranks = append(ws.ranks, s)
	}
}
