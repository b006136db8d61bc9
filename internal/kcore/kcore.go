// Package kcore computes the k-core decomposition of every window of a
// temporal graph, postmortem-style — another of the analyses the paper
// lists for the sliding-window model (Sec. 3.1; cf. Gabert et al.'s
// postmortem dense-region analysis cited there). Run and Window take the
// multi-window temporal CSR the caller built, and Run reuses its
// window-level parallelism.
//
// Each window is solved with the classic linear-time peeling algorithm
// (Batagelj–Zaveršnik bucket ordering) over the deduplicated undirected
// window view.
package kcore

import (
	"pmpr/internal/sched"
	"pmpr/internal/tcsr"
)

// WindowResult summarizes one window's core structure.
type WindowResult struct {
	Window         int
	ActiveVertices int32
	// MaxCore is the degeneracy of the window graph.
	MaxCore int32
	// MaxCoreSize is the number of vertices in the innermost core.
	MaxCoreSize int32

	coreness []int32 // per-local-vertex coreness, -1 inactive
	mw       *tcsr.MultiWindow
}

// Coreness returns the coreness of the global vertex in this window, or
// -1 when the vertex is inactive or r came from Run, which keeps no
// coreness.
func (r *WindowResult) Coreness(global int32) int32 {
	if r.coreness == nil {
		return -1
	}
	local := r.mw.LocalID(global)
	if local < 0 {
		return -1
	}
	return r.coreness[local]
}

// grain is the window-level loop's scheduler grain.
const grain = 2

// Run computes the core summary of every window of tg. Windows run in
// parallel on the pool, serially with a nil pool. The summaries carry
// no coreness; Window solves one window with it.
func Run(tg *tcsr.Temporal, pool *sched.Pool) []WindowResult {
	results := make([]WindowResult, tg.Spec.Count)
	body := func(_ *sched.Worker, lo, hi int) {
		var s solver
		for w := lo; w < hi; w++ {
			results[w] = s.solve(tg, w, false)
		}
	}
	if pool == nil {
		body(nil, 0, len(results))
	} else {
		pool.ParallelFor(len(results), grain, sched.Auto, body)
	}
	return results
}

// Window computes window w of tg with its per-vertex coreness, so
// Coreness answers.
func Window(tg *tcsr.Temporal, w int) WindowResult {
	var s solver
	return s.solve(tg, w, true)
}

// solver holds one worker's reusable window view and peeler.
type solver struct {
	view tcsr.WindowView
	p    peeler
}

func (s *solver) solve(tg *tcsr.Temporal, w int, keepCoreness bool) WindowResult {
	mw := tg.ForWindow(w)
	view := &s.view
	mw.Materialize(w, view)
	res := WindowResult{Window: w, ActiveVertices: view.NumActive, mw: mw}
	core := s.p.run(view)
	var maxCore, maxSize int32
	for v := range core {
		if !view.Active[v] {
			continue
		}
		switch {
		case core[v] > maxCore:
			maxCore = core[v]
			maxSize = 1
		case core[v] == maxCore:
			maxSize++
		}
	}
	res.MaxCore = maxCore
	res.MaxCoreSize = maxSize
	if keepCoreness {
		res.coreness = make([]int32, len(core))
		copy(res.coreness, core)
	}
	return res
}

// peeler implements Batagelj–Zaveršnik peeling with reusable buffers.
type peeler struct {
	deg   []int32
	core  []int32
	pos   []int32 // position of vertex in order
	order []int32 // vertices sorted by current degree
	bin   []int32 // start index of each degree bucket in order
	next  []int32 // fill cursor per degree bucket while placing order
}

// run computes coreness per local vertex (-1 for inactive vertices).
func (p *peeler) run(view *tcsr.WindowView) []int32 {
	n := len(view.Active)
	if cap(p.deg) < n {
		p.deg = make([]int32, n)
		p.core = make([]int32, n)
		p.pos = make([]int32, n)
		p.order = make([]int32, n)
	}
	p.deg = p.deg[:n]
	p.core = p.core[:n]
	p.pos = p.pos[:n]
	p.order = p.order[:n]

	maxDeg := int32(0)
	for v := 0; v < n; v++ {
		d := int32(view.Row[v+1] - view.Row[v])
		p.deg[v] = d
		if d > maxDeg {
			maxDeg = d
		}
	}
	if cap(p.bin) < int(maxDeg)+2 {
		p.bin = make([]int32, maxDeg+2)
		p.next = make([]int32, maxDeg+2)
	}
	p.bin = p.bin[:maxDeg+2]
	next := p.next[:maxDeg+2]
	for i := range p.bin {
		p.bin[i] = 0
	}
	for v := 0; v < n; v++ {
		p.bin[p.deg[v]+1]++
	}
	for d := int32(1); d < int32(len(p.bin)); d++ {
		p.bin[d] += p.bin[d-1]
	}
	// bin[d] = first index of degree-d vertices in order.
	copy(next, p.bin)
	for v := 0; v < n; v++ {
		p.pos[v] = next[p.deg[v]]
		p.order[p.pos[v]] = int32(v)
		next[p.deg[v]]++
	}

	for i := 0; i < n; i++ {
		v := p.order[i]
		p.core[v] = p.deg[v]
		for _, u := range view.Col[view.Row[v]:view.Row[v+1]] {
			if p.deg[u] > p.deg[v] {
				// Move u one bucket down: swap with the first vertex of
				// its bucket, then shrink the bucket.
				du := p.deg[u]
				pu := p.pos[u]
				pw := p.bin[du]
				wv := p.order[pw]
				if u != wv {
					p.order[pu], p.order[pw] = wv, u
					p.pos[u], p.pos[wv] = pw, pu
				}
				p.bin[du]++
				p.deg[u]--
			}
		}
	}
	for v := 0; v < n; v++ {
		if !view.Active[v] {
			p.core[v] = -1
		}
	}
	return p.core
}
