package core

import (
	"slices"

	"pmpr/internal/tcsr"
)

// runIndex is what the sweeps read of a window's edge liveness, so they
// read no timestamps. It lists, per local vertex v, the in-runs of the
// multi-window graph that are live in the window (tcsr.RunActive
// against its bounds), in the graph's neighbor order: entries
// row[v]..end[v]-1, where col holds the run's in-neighbor. Runs not
// live in the window are left out, so a sweep touches only the edges
// the window sees; end[v]-row[v] is v's live in-run count.
//
// row is the graph's own InRow: a vertex's live runs sit where its
// stored runs start, so the index needs no offsets of its own.
type runIndex struct {
	row []int64 // mw.InRow; not owned
	end []int64
	col []int32

	kept int64 // indexed runs: Σ end[v]-row[v]
}

// chainIndex is the edge liveness a warm-start chain carries from
// window to window: the run index, inverse out-degrees and the
// ascending active list of the window it was last brought to (at).
// solveUnit owns it for a unit's lifetime and each window's Init
// brings it forward (seek), so Init costs what changed since the
// previous window, not what the multi-window graph stores.
//
// open walks the graph once per unit and turns every stored run into
// its live-window intervals, clipped to the unit's windows; a counting
// sort buckets them into per-window enter and leave lists. seek then
// applies a window's leaves and enters as deltas. Each in-run is one
// distinct neighbour, so an enter or leave is a binary search plus a
// shift inside v's slot, which keeps the slot in neighbour order: the
// index lists the same runs in the same order as a walk of the stored
// runs against the window would. A directed graph's out-runs get the
// same walk and only move their source's out-degree; a symmetrized
// graph's out-runs are its in-runs, so its degree is the slot's length.
//
// The first window of a unit, and any window whose predecessor the
// index does not describe (it was restored from a checkpoint,
// quarantined, or a panicked attempt invalidated the index), rebuild
// instead, by inserting every interval that covers the window: the
// same insert in the same order as the deltas use. An injected error
// fails an attempt before Init runs, so its retry finds the index still
// at the predecessor and applies the window's deltas as the first
// attempt would have.
//
// Every buffer comes from the unit's workspace and is sized by the
// graph (its local vertices, its stored events, the unit's windows).
// The int32 arrays are carved from one buffer, so a unit sizes three.
type chainIndex struct {
	runIndex
	outdeg []int32   // live out-runs per vertex; nil when the graph is symmetrized
	invdeg []float64 // 1/out-degree, 0 for a vertex without live out-runs
	list   []int32   // active vertices (a live in-run or out-run), ascending
	spare  []int32   // the next list, merged from list and flips
	flips  []int32   // vertices whose activity flipped while seeking

	// The unit's intervals, in walk order: in-runs by (vertex,
	// neighbour), then a directed graph's out-runs by source with
	// ivCol -1. Interval i is live in unit offsets [ivLo[i], ivHi[i]].
	ivVert, ivCol, ivLo, ivHi []int32
	// The deltas: enter[enterAt[k]:enterAt[k+1]] are the intervals that
	// open at unit offset k ≥ 1, and leave[leaveAt[k]:leaveAt[k+1]]
	// those whose last offset is k−1, each in walk order.
	enterAt, enter, leaveAt, leave []int32

	first  int   // the unit's first global window
	at     int   // the unit offset the index describes; -1 = invalid
	walked int64 // stored runs open walked
}

// open walks mw's stored runs once for the unit of global windows
// [lo, hi) and leaves the index invalid, so the unit's first seek
// rebuilds it. Its buffers are ws's, until the unit gives ws back.
func (ix *chainIndex) open(mw *tcsr.MultiWindow, lo, hi int, ws *workspace) {
	n, nw := int(mw.NumLocal()), hi-lo
	// Every interval holds at least one stored event of its side.
	bound := len(mw.InCol)
	aliased := mw.OutColAliased()
	vertexArrays := 4 // list, spare, and flips at twice the size
	if !aliased {
		bound += len(mw.OutCol)
		vertexArrays++ // outdeg
	}
	*ix = chainIndex{first: lo, at: -1}
	ix.runIndex = runIndex{row: mw.InRow, end: size(ws, &ws.end, n)}
	ix.invdeg = size(ws, &ws.invdeg, n)
	buf := size(ws, &ws.index, vertexArrays*n+len(mw.InCol)+6*bound+2*(nw+1))
	v, e, wn := buf[:vertexArrays*n], buf[vertexArrays*n:len(buf)-2*(nw+1)], buf[len(buf)-2*(nw+1):]
	ix.list, ix.spare = v[0:0:n], v[n:n:2*n]
	// A seek's leaves can only deactivate a vertex and its enters only
	// activate one, so a vertex flips at most twice.
	ix.flips = v[2*n : 2*n : 4*n]
	if !aliased {
		ix.outdeg = v[4*n : 5*n]
	}
	ix.col, e = e[:len(mw.InCol)], e[len(mw.InCol):]
	ix.ivVert, ix.ivCol = e[0:0:bound], e[bound:bound:2*bound]
	ix.ivLo, ix.ivHi = e[2*bound:2*bound:3*bound], e[3*bound:3*bound:4*bound]
	ix.enter, ix.leave = e[4*bound:5*bound], e[5*bound:6*bound]
	ix.enterAt, ix.leaveAt = wn[:nw+1], wn[nw+1:]

	ix.walkSide(mw, mw.InRow, mw.InCol, mw.InTime, false, hi)
	if !aliased {
		ix.walkSide(mw, mw.OutRow, mw.OutCol, mw.OutTime, true, hi)
	}
	bucket(ix.enterAt, ix.enter, ix.ivLo, 0, nw)
	bucket(ix.leaveAt, ix.leave, ix.ivHi, 1, nw)
}

// walkSide appends the intervals of one CSR side's runs, clipped to
// the unit's global windows [ix.first, hi). A run is live in window w
// iff one of its timestamps is (WindowSpec.Covering); the timestamps
// ascend, and so do both ends of their covering ranges, so a run's
// ranges merge into disjoint intervals in one pass. A timestamp before
// the start of the window after the current interval cannot extend
// it, and an interval that reaches the unit's last window ends the
// run, so neither needs a Covering. out marks the out-side, whose
// intervals carry neighbour -1.
func (ix *chainIndex) walkSide(mw *tcsr.MultiWindow, row []int64, col []int32, tim []int64, out bool, hi int) {
	spec := mw.Spec()
	lo := ix.first
	tLo, tHi := spec.Start(lo), spec.End(hi-1)
	n := len(row) - 1
	for v := 0; v < n; v++ {
		i, e := row[v], row[v+1]
		for i < e {
			j := i + 1
			c := col[i]
			for j < e && col[j] == c {
				j++
			}
			if out {
				c = -1
			}
			ix.walked++
			have := false
			var curLo, curHi int
			var next int64 // the first time that can extend curHi
			for _, t := range tim[i:j] {
				if t < tLo || (have && t < next) {
					continue
				}
				if t > tHi {
					break
				}
				a, b, ok := spec.Covering(t)
				if !ok {
					continue
				}
				a, b = max(a, lo)-lo, min(b, hi-1)-lo
				if have && a <= curHi+1 {
					curHi = max(curHi, b)
				} else {
					if have {
						ix.addInterval(int32(v), c, curLo, curHi)
					}
					have, curLo, curHi = true, a, b
				}
				if curHi == hi-lo-1 {
					break // live through the unit's last window
				}
				next = spec.Start(lo + curHi + 1)
			}
			if have {
				ix.addInterval(int32(v), c, curLo, curHi)
			}
			i = j
		}
	}
}

// addInterval appends the interval of v's run from c (-1 on the
// out-side) live in unit offsets [lo, hi].
func (ix *chainIndex) addInterval(v, c int32, lo, hi int) {
	ix.ivVert = append(ix.ivVert, v)
	ix.ivCol = append(ix.ivCol, c)
	ix.ivLo = append(ix.ivLo, int32(lo))
	ix.ivHi = append(ix.ivHi, int32(hi))
}

// bucket counting-sorts the intervals into at/items by key+shift: an
// interval lands in bucket key[i]+shift when that is an offset in
// [1, nw), in walk order. at has nw+1 entries, zeroed.
func bucket(at, items, key []int32, shift int32, nw int) {
	for _, k := range key {
		if k += shift; k >= 1 && int(k) < nw {
			at[k+1]++
		}
	}
	for k := 1; k <= nw; k++ {
		at[k] += at[k-1]
	}
	for i, k := range key {
		if k += shift; k >= 1 && int(k) < nw {
			items[at[k]] = int32(i)
			at[k]++
		}
	}
	// Each bucket's cursor now sits at the next bucket's start.
	copy(at[1:], at[:nw])
	at[0] = 0
}

// invalidate makes the next seek rebuild.
func (ix *chainIndex) invalidate() { ix.at = -1 }

// seek brings the index to global window w and returns how many runs
// it inserted or removed: w's deltas when the index describes w's
// predecessor, and every run live in w otherwise (a rebuild). The
// index is invalid while it changes, so a panic midway leaves it to be
// rebuilt.
func (ix *chainIndex) seek(w int) int64 {
	k := w - ix.first
	var applied int64
	if k > 0 && ix.at == k-1 {
		ix.at = -1
		for _, i := range ix.leave[ix.leaveAt[k]:ix.leaveAt[k+1]] {
			ix.remove(i)
		}
		for _, i := range ix.enter[ix.enterAt[k]:ix.enterAt[k+1]] {
			ix.insert(i)
		}
		applied = int64(ix.leaveAt[k+1]-ix.leaveAt[k]) + int64(ix.enterAt[k+1]-ix.enterAt[k])
	} else {
		ix.at = -1
		copy(ix.end, ix.row)
		ix.kept = 0
		clear(ix.outdeg)
		clear(ix.invdeg)
		ix.list, ix.flips = ix.list[:0], ix.flips[:0]
		k32 := int32(k)
		for i := range ix.ivLo {
			if ix.ivLo[i] <= k32 && k32 <= ix.ivHi[i] {
				ix.insert(int32(i))
				applied++
			}
		}
	}
	ix.mergeFlips()
	ix.at = k
	return applied
}

// active reports whether v has a live in-run or out-run.
func (ix *chainIndex) active(v int32) bool {
	return ix.end[v] > ix.row[v] || ix.invdeg[v] > 0
}

// setDegree records v's out-degree d.
func (ix *chainIndex) setDegree(v int32, d int64) {
	if d > 0 {
		ix.invdeg[v] = 1 / float64(d)
	} else {
		ix.invdeg[v] = 0
	}
}

// insert makes interval i's run live.
func (ix *chainIndex) insert(i int32) {
	v, c := ix.ivVert[i], ix.ivCol[i]
	was := ix.active(v)
	if c < 0 {
		ix.outdeg[v]++
		ix.setDegree(v, int64(ix.outdeg[v]))
	} else {
		lo, e := ix.row[v], ix.end[v]
		off, _ := slices.BinarySearch(ix.col[lo:e], c)
		p := lo + int64(off)
		copy(ix.col[p+1:e+1], ix.col[p:e])
		ix.col[p] = c
		ix.end[v] = e + 1
		ix.kept++
		if ix.outdeg == nil {
			ix.setDegree(v, e+1-lo)
		}
	}
	if !was {
		ix.flips = append(ix.flips, v)
	}
}

// remove makes interval i's run dead.
func (ix *chainIndex) remove(i int32) {
	v, c := ix.ivVert[i], ix.ivCol[i]
	if c < 0 {
		ix.outdeg[v]--
		ix.setDegree(v, int64(ix.outdeg[v]))
	} else {
		lo, e := ix.row[v], ix.end[v]
		off, _ := slices.BinarySearch(ix.col[lo:e], c)
		p := lo + int64(off)
		copy(ix.col[p:e-1], ix.col[p+1:e])
		ix.end[v] = e - 1
		ix.kept--
		if ix.outdeg == nil {
			ix.setDegree(v, e-1-lo)
		}
	}
	if !ix.active(v) {
		ix.flips = append(ix.flips, v)
	}
}

// mergeFlips folds the seek's activity flips into the ascending list:
// a vertex in the list that flipped leaves it, any other joins it. A
// vertex that flipped twice (its last run left, then a run entered)
// sorts as a pair, leaves with the first and joins again with the
// second.
func (ix *chainIndex) mergeFlips() {
	flips := ix.flips
	if len(flips) == 0 {
		return
	}
	slices.Sort(flips)
	list, out := ix.list, ix.spare[:0]
	i := 0
	for _, f := range flips {
		for i < len(list) && list[i] < f {
			out = append(out, list[i])
			i++
		}
		if i < len(list) && list[i] == f {
			i++
		} else {
			out = append(out, f)
		}
	}
	out = append(out, list[i:]...)
	ix.list, ix.spare = out, list[:0]
	ix.flips = flips[:0]
}
