package core

import (
	"pmpr/internal/sched"
	"pmpr/internal/tcsr"
)

// maxSlots is the widest batch a run index can describe: a run's slot
// mask is one uint64.
const maxSlots = 64

// runIndex is a batch's edge liveness, computed once in Kernel.Init so
// the sweeps read no timestamps. It lists, per local vertex v, the
// in-runs of the multi-window graph that are live in at least one slot
// of the batch, in the graph's (neighbor, time) order: entries
// row[v]..row[v+1]-1, where col holds the run's in-neighbor and bit k
// of mask is set iff the run is live in slot k (tcsr.RunActive against
// the slot's view). Runs live in no slot are dropped, so a sweep
// touches only the edges its windows see.
//
// col and mask come from the scratch lease sized by the graph's stored
// in-events, an upper bound on the kept runs, so every batch of a
// multi-window graph asks the arena for the same sizes; release returns
// them.
type runIndex struct {
	row  []int64
	col  []int32
	mask []uint64
}

// buildRunIndex indexes the in-runs of mw against views (at most
// maxSlots, all windows of mw). It makes two passes under loop: the
// first counts each vertex's kept runs, the second fills them in at the
// offsets the counts' prefix sum assigns.
func buildRunIndex(mw *tcsr.MultiWindow, views []tcsr.SolveView, loop forLoop, sb *scratchBuf) runIndex {
	n := int(mw.NumLocal())
	ix := runIndex{
		row:  sb.getI64(n + 1),
		col:  sb.getI32(len(mw.InCol)),
		mask: sb.getU64(len(mw.InCol)),
	}
	row := ix.row
	inRow, inCol, inTime := mw.InRow, mw.InCol, mw.InTime
	loop(n, func(_ *sched.Worker, lo, hi int) {
		for v := lo; v < hi; v++ {
			var kept int64
			i, end := inRow[v], inRow[v+1]
			for i < end {
				j := i + 1
				for j < end && inCol[j] == inCol[i] {
					j++
				}
				for k := range views {
					if tcsr.RunActive(inTime[i:j], views[k].Ts, views[k].Te) {
						kept++
						break
					}
				}
				i = j
			}
			row[v+1] = kept
		}
	})
	for v := 0; v < n; v++ {
		row[v+1] += row[v]
	}
	col, mask := ix.col, ix.mask
	loop(n, func(_ *sched.Worker, lo, hi int) {
		for v := lo; v < hi; v++ {
			r := row[v]
			i, end := inRow[v], inRow[v+1]
			for i < end {
				j := i + 1
				c := inCol[i]
				for j < end && inCol[j] == c {
					j++
				}
				var m uint64
				for k := range views {
					if tcsr.RunActive(inTime[i:j], views[k].Ts, views[k].Te) {
						m |= 1 << k
					}
				}
				if m != 0 {
					col[r], mask[r] = c, m
					r++
				}
				i = j
			}
		}
	})
	return ix
}

// release returns the index's buffers to the arena.
func (ix runIndex) release(sb *scratchBuf) {
	sb.putI64(ix.row)
	sb.putI32(ix.col)
	sb.putU64(ix.mask)
}
