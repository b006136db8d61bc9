package tcsr

// WindowView is a compact, deduplicated adjacency snapshot of one
// window of a multi-window graph, in local vertex ids. Kernels that
// need many passes over a window's edges with direction-free semantics
// (connected components, k-core peeling) materialize a view once
// instead of re-filtering the temporal CSR on every pass.
//
// The view is undirected: the neighbors of v are the union of its
// active out- and in-neighbors (for symmetrized builds the two sides
// coincide). A view's buffers are reusable across windows via
// Materialize.
type WindowView struct {
	// Row/Col form a CSR over the multi-window local ids: the neighbors
	// of v are Col[Row[v]:Row[v+1]], sorted ascending, no duplicates.
	Row []int64
	Col []int32
	// Active flags vertices with at least one live incident edge.
	Active []bool
	// NumActive is the number of active vertices.
	NumActive int32
}

// Materialize fills the view with window w's adjacency. The view's
// slices are reused when large enough.
func (mw *MultiWindow) Materialize(w int, view *WindowView) {
	n := int(mw.NumLocal())
	ts, te := mw.Window(w)
	if cap(view.Row) < n+1 {
		view.Row = make([]int64, n+1)
	}
	view.Row = view.Row[:n+1]
	if cap(view.Active) < n {
		view.Active = make([]bool, n)
	}
	view.Active = view.Active[:n]

	aliased := mw.OutColAliased() || len(mw.InCol) == 0

	// Pass 1: count each vertex's active neighbors (merged, deduped).
	total := int64(0)
	for v := 0; v < n; v++ {
		view.Row[v] = total
		total += mw.mergeActive(int32(v), ts, te, aliased, nil)
	}
	view.Row[n] = total
	if cap(view.Col) < int(total) {
		view.Col = make([]int32, total)
	}
	view.Col = view.Col[:total]

	// Pass 2: fill.
	view.NumActive = 0
	for v := 0; v < n; v++ {
		dst := view.Col[view.Row[v]:view.Row[v+1]]
		mw.mergeActive(int32(v), ts, te, aliased, dst)
		act := len(dst) > 0
		view.Active[v] = act
		if act {
			view.NumActive++
		}
	}
}

// mergeActive walks the out- and in-runs of v (both sorted by
// neighbor), keeping neighbors with at least one live event on either
// side. With dst == nil it only counts; otherwise it writes into dst.
// It returns the number of distinct active neighbors.
func (mw *MultiWindow) mergeActive(v int32, ts, te int64, aliased bool, dst []int32) int64 {
	count := int64(0)
	emit := func(nbr int32) {
		if dst != nil {
			dst[count] = nbr
		}
		count++
	}
	oi, oEnd := mw.OutRow[v], mw.OutRow[v+1]
	var ii, iEnd int64
	if !aliased {
		ii, iEnd = mw.InRow[v], mw.InRow[v+1]
	}
	nextRun := func(col []int32, tim []int64, i, end int64) (nbr int32, active bool, next int64) {
		j := i + 1
		c := col[i]
		for j < end && col[j] == c {
			j++
		}
		return c, RunActive(tim[i:j], ts, te), j
	}
	var oNbr, iNbr int32
	var oAct, iAct bool
	oHave, iHave := false, false
	for {
		if !oHave && oi < oEnd {
			oNbr, oAct, oi = nextRun(mw.OutCol, mw.OutTime, oi, oEnd)
			oHave = true
		}
		if !aliased && !iHave && ii < iEnd {
			iNbr, iAct, ii = nextRun(mw.InCol, mw.InTime, ii, iEnd)
			iHave = true
		}
		switch {
		case oHave && iHave:
			switch {
			case oNbr < iNbr:
				if oAct {
					emit(oNbr)
				}
				oHave = false
			case iNbr < oNbr:
				if iAct {
					emit(iNbr)
				}
				iHave = false
			default:
				if oAct || iAct {
					emit(oNbr)
				}
				oHave, iHave = false, false
			}
		case oHave:
			if oAct {
				emit(oNbr)
			}
			oHave = false
		case iHave:
			if iAct {
				emit(iNbr)
			}
			iHave = false
		default:
			return count
		}
	}
}
