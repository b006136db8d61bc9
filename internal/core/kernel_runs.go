package core

import (
	"sync/atomic"

	"pmpr/internal/sched"
	"pmpr/internal/tcsr"
)

// runIndex is a window's edge liveness, computed once in
// spmvKernel.Init so the sweeps read no timestamps. It lists, per local
// vertex v, the in-runs of the multi-window graph that are live in the
// window (tcsr.RunActive against its view), in the graph's (neighbor,
// time) order: entries row[v]..end[v]-1, where col holds the run's
// in-neighbor. Runs not live in the window are dropped, so a sweep
// touches only the edges the window sees; end[v]-row[v] is v's live
// in-run count.
//
// row is the graph's own InRow: a vertex's kept runs are written from
// where its stored runs start, so the index needs no offsets of its
// own. end and col come from the scratch lease; col is sized by the
// graph's stored in-events, an upper bound on the kept runs, so every
// window of a multi-window graph asks the arena for the same sizes.
// release returns them and leaves row alone.
type runIndex struct {
	row []int64 // mw.InRow; not owned
	end []int64
	col []int32

	kept    int64 // indexed runs: Σ end[v]-row[v]
	visited int64 // stored in-runs the build walked
}

// buildRunIndex indexes the in-runs of mw live in view in one walk
// under loop: each vertex's kept runs go to row[v] onward and end[v]
// records where they stop.
func buildRunIndex(mw *tcsr.MultiWindow, view tcsr.SolveView, loop forLoop, sb *scratchBuf) runIndex {
	n := int(mw.NumLocal())
	ix := runIndex{
		row: mw.InRow,
		end: sb.getI64(n),
		col: sb.getI32(len(mw.InCol)),
	}
	inRow, inCol, inTime := mw.InRow, mw.InCol, mw.InTime
	end, col := ix.end, ix.col
	// Leaves add their counts once each; the index is built once per
	// window, outside the iteration loop.
	var kept, visited atomic.Int64
	loop(n, func(_ *sched.Worker, lo, hi int) {
		var leafKept, leafVisited int64
		for v := lo; v < hi; v++ {
			r := inRow[v]
			i, e := inRow[v], inRow[v+1]
			for i < e {
				j := i + 1
				c := inCol[i]
				for j < e && inCol[j] == c {
					j++
				}
				if tcsr.RunActive(inTime[i:j], view.Ts, view.Te) {
					col[r] = c
					r++
				}
				leafVisited++
				i = j
			}
			end[v] = r
			leafKept += r - inRow[v]
		}
		kept.Add(leafKept)
		visited.Add(leafVisited)
	})
	ix.kept, ix.visited = kept.Load(), visited.Load()
	return ix
}

// release returns the index's buffers to the arena.
func (ix runIndex) release(sb *scratchBuf) {
	sb.putI64(ix.end)
	sb.putI32(ix.col)
}
