// Package wcc computes connected components on every window of a
// temporal graph, postmortem-style. The paper focuses on PageRank but
// names connected components among the analyses the sliding-window
// formulation supports (Sec. 3.1); Run and Window take the same
// multi-window temporal CSR the caller built for PageRank, and Run
// reuses its window-level parallelism.
//
// Components are weak: edge direction is ignored (the per-window view
// merges in- and out-adjacency). Each window is solved with union-find
// (path halving + union by size) over the materialized window view.
package wcc

import (
	"pmpr/internal/sched"
	"pmpr/internal/tcsr"
)

// WindowResult summarizes one window's component structure.
type WindowResult struct {
	Window         int
	ActiveVertices int32
	// Components is the number of connected components among active
	// vertices (isolated vertices are not counted).
	Components int32
	// LargestSize is the vertex count of the largest component.
	LargestSize int32

	labels []int32 // per-local-vertex component root, -1 for inactive
	mw     *tcsr.MultiWindow
}

// Label returns the component id of the global vertex (an arbitrary but
// consistent active vertex id within the window), or -1 when the vertex
// is inactive or r came from Run, which keeps no labels.
func (r *WindowResult) Label(global int32) int32 {
	if r.labels == nil {
		return -1
	}
	local := r.mw.LocalID(global)
	if local < 0 {
		return -1
	}
	if l := r.labels[local]; l >= 0 {
		return r.mw.GlobalID(l)
	}
	return -1
}

// SameComponent reports whether two global vertices are connected in
// this window. It requires a result from Window.
func (r *WindowResult) SameComponent(a, b int32) bool {
	la, lb := r.Label(a), r.Label(b)
	return la >= 0 && la == lb
}

// grain is the window-level loop's scheduler grain.
const grain = 2

// Run computes the component summary of every window of tg. Windows run
// in parallel on the pool (the kernel itself is sequential, as in the
// offline model); a nil pool runs serially. The summaries carry no
// labels; Window solves one window with them.
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

// Window computes window w of tg with its per-vertex labels, so Label
// and SameComponent answer.
func Window(tg *tcsr.Temporal, w int) WindowResult {
	var s solver
	return s.solve(tg, w, true)
}

// solver holds one worker's reusable window view and union-find.
type solver struct {
	view tcsr.WindowView
	uf   unionFind
}

func (s *solver) solve(tg *tcsr.Temporal, w int, keepLabels bool) WindowResult {
	mw := tg.ForWindow(w)
	view, uf := &s.view, &s.uf
	mw.Materialize(w, view)
	n := int(mw.NumLocal())
	res := WindowResult{Window: w, ActiveVertices: view.NumActive, mw: mw}
	uf.reset(n)
	for v := 0; v < n; v++ {
		for _, u := range view.Col[view.Row[v]:view.Row[v+1]] {
			uf.union(int32(v), u)
		}
	}
	// Count components and track the largest, over active vertices.
	var comps, largest int32
	for v := 0; v < n; v++ {
		if !view.Active[v] {
			continue
		}
		r := uf.find(int32(v))
		if int(r) == v {
			comps++
		}
		if uf.size[r] > largest {
			largest = uf.size[r]
		}
	}
	res.Components = comps
	res.LargestSize = largest
	if keepLabels {
		labels := make([]int32, n)
		for v := 0; v < n; v++ {
			if view.Active[v] {
				labels[v] = uf.find(int32(v))
			} else {
				labels[v] = -1
			}
		}
		res.labels = labels
	}
	return res
}

// unionFind is a reusable union-find with path halving and union by
// size.
type unionFind struct {
	parent []int32
	size   []int32
}

func (u *unionFind) reset(n int) {
	if cap(u.parent) < n {
		u.parent = make([]int32, n)
		u.size = make([]int32, n)
	}
	u.parent = u.parent[:n]
	u.size = u.size[:n]
	for i := 0; i < n; i++ {
		u.parent[i] = int32(i)
		u.size[i] = 1
	}
}

func (u *unionFind) find(x int32) int32 {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int32) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.size[ra] < u.size[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.size[ra] += u.size[rb]
}
