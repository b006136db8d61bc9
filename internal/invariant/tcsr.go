package invariant

import (
	"pmpr/internal/events"
	"pmpr/internal/tcsr"
)

// CheckMultiWindow validates the temporal CSR structure of one
// multi-window graph (Sec. 4.1, Fig. 3): row-pointer monotonicity and
// bounds on both adjacency sides, per-row run ordering by
// (neighbor, time), aliasing of the two sides for undirected builds,
// and the local-relabel bijection (ascending global ids mapping back to
// their local slots).
func CheckMultiWindow(mw *tcsr.MultiWindow, directed bool) error {
	var v violations
	n := int(mw.NumLocal())

	if mw.WinLo < 0 || mw.WinHi <= mw.WinLo {
		v.addf("invariant: window range [%d,%d) is empty or negative", mw.WinLo, mw.WinHi)
	}
	checkSide(&v, "out", mw.OutRow, mw.OutCol, mw.OutTime, n)
	if directed {
		checkSide(&v, "in", mw.InRow, mw.InCol, mw.InTime, n)
	} else if n > 0 && len(mw.OutCol) > 0 && !mw.OutColAliased() {
		v.addf("invariant: undirected build does not alias the in and out views")
	}
	if mw.NumEvents() != len(mw.OutCol) {
		v.addf("invariant: NumEvents %d != stored out entries %d", mw.NumEvents(), len(mw.OutCol))
	}

	// Local relabeling (Sec. 4.1): globalID must be strictly ascending
	// (partial initialization across consecutive windows depends on the
	// id-aligned order) and LocalID must be its exact inverse.
	ids := mw.GlobalIDs()
	if len(ids) != n {
		v.addf("invariant: %d global ids for %d local vertices", len(ids), n)
	}
	for i, g := range ids {
		if g < 0 {
			v.addf("invariant: negative global id %d at local %d", g, i)
		}
		if i > 0 && ids[i-1] >= g {
			v.addf("invariant: global ids not strictly ascending at local %d (%d >= %d)", i, ids[i-1], g)
		}
		if got := mw.LocalID(g); got != int32(i) {
			v.addf("invariant: LocalID(%d) = %d, want %d (relabel not a bijection)", g, got, i)
		}
	}
	// Spot-check that ids absent from the table resolve to -1.
	if n > 0 {
		for _, g := range []int32{ids[0] - 1, ids[n-1] + 1} {
			if g >= 0 && mw.LocalID(g) != -1 {
				v.addf("invariant: LocalID(%d) = %d for a vertex outside the local set", g, mw.LocalID(g))
			}
		}
	}
	return v.err()
}

// checkSide validates one CSR side: row pointers cover [0, len(col)]
// monotonically, columns stay in-range, and every adjacency run is
// sorted by (neighbor, time) — the layout RunActive's early-exit scan
// and the kernels' run grouping assume.
func checkSide(v *violations, side string, row []int64, col []int32, tim []int64, n int) {
	if len(row) != n+1 {
		v.addf("invariant: %s row pointer length %d, want %d", side, len(row), n+1)
		return
	}
	if len(col) != len(tim) {
		v.addf("invariant: %s col/time length mismatch %d != %d", side, len(col), len(tim))
		return
	}
	if n == 0 {
		return
	}
	if row[0] != 0 {
		v.addf("invariant: %s row[0] = %d, want 0", side, row[0])
	}
	if row[n] != int64(len(col)) {
		v.addf("invariant: %s row[%d] = %d, want %d entries", side, n, row[n], len(col))
	}
	for u := 0; u < n; u++ {
		lo, hi := row[u], row[u+1]
		if lo > hi {
			v.addf("invariant: %s row pointers decrease at vertex %d (%d > %d)", side, u, lo, hi)
			return
		}
		if lo < 0 || hi > int64(len(col)) {
			v.addf("invariant: %s row %d range [%d,%d) out of bounds", side, u, lo, hi)
			return
		}
		for i := lo; i < hi; i++ {
			if c := col[i]; c < 0 || int(c) >= n {
				v.addf("invariant: %s col[%d] = %d outside local range [0,%d)", side, i, c, n)
			}
			if i > lo {
				if col[i-1] > col[i] {
					v.addf("invariant: %s row %d not sorted by neighbor at entry %d", side, u, i)
				} else if col[i-1] == col[i] && tim[i-1] > tim[i] {
					v.addf("invariant: %s row %d run %d has descending timestamps at entry %d",
						side, u, col[i], i)
				}
			}
		}
	}
}

// CheckTemporal validates the whole postmortem representation: the
// multi-window graphs partition the window sequence exactly, ForWindow
// resolves every window into its covering graph, every local vertex
// maps into the global universe, and each graph passes CheckMultiWindow.
func CheckTemporal(tg *tcsr.Temporal) error {
	var v violations
	if err := tg.Spec.Validate(); err != nil {
		return err
	}
	if len(tg.MWs) == 0 {
		v.addf("invariant: representation holds no multi-window graphs")
		return v.err()
	}
	// The graphs tile [0, Count) contiguously, in window order.
	if tg.MWs[0].WinLo != 0 {
		v.addf("invariant: first multi-window starts at %d, want 0", tg.MWs[0].WinLo)
	}
	for i := 1; i < len(tg.MWs); i++ {
		if tg.MWs[i].WinLo != tg.MWs[i-1].WinHi {
			v.addf("invariant: multi-window %d starts at %d, previous ends at %d",
				i, tg.MWs[i].WinLo, tg.MWs[i-1].WinHi)
		}
	}
	if last := tg.MWs[len(tg.MWs)-1]; last.WinHi != tg.Spec.Count {
		v.addf("invariant: last multi-window ends at %d, want %d", last.WinHi, tg.Spec.Count)
	}
	for w := 0; w < tg.Spec.Count; w++ {
		mw := tg.ForWindow(w)
		if mw == nil || w < mw.WinLo || w >= mw.WinHi {
			v.addf("invariant: ForWindow(%d) resolves to graph [%d,%d)", w, mw.WinLo, mw.WinHi)
		}
	}
	for i, mw := range tg.MWs {
		if err := CheckMultiWindow(mw, tg.Directed); err != nil {
			v.addf("invariant: multi-window %d: %w", i, err)
		}
		for _, g := range mw.GlobalIDs() {
			if g >= tg.NumVertices() {
				v.addf("invariant: multi-window %d holds global id %d outside universe %d",
					i, g, tg.NumVertices())
				break
			}
		}
	}
	return v.err()
}

// CheckCoverage validates the window coverage of the event log
// (Sec. 4.1's memory/work trade-off): every event covered by at least
// one window must be stored — with both endpoints relabeled and an
// exact (neighbor, time) entry in the out-adjacency — in every
// multi-window graph whose window range intersects the event's covering
// range, and the total replicated event count must match exactly.
func CheckCoverage(tg *tcsr.Temporal, l *events.Log) error {
	var v violations
	var expected int64
	for _, e := range l.Events() {
		lo, hi, ok := tg.Spec.Covering(e.T)
		if !ok {
			continue
		}
		for _, mw := range tg.MWs {
			if hi < mw.WinLo || lo >= mw.WinHi {
				continue
			}
			expected++
			lu, lv := mw.LocalID(e.U), mw.LocalID(e.V)
			if lu < 0 || lv < 0 {
				v.addf("invariant: event (%d,%d,%d) covered by windows [%d,%d) lacks local ids (%d,%d)",
					e.U, e.V, e.T, mw.WinLo, mw.WinHi, lu, lv)
				continue
			}
			if !hasEntry(mw, lu, lv, e.T) {
				v.addf("invariant: event (%d,%d,%d) missing from out-adjacency of multi-window [%d,%d)",
					e.U, e.V, e.T, mw.WinLo, mw.WinHi)
			}
		}
	}
	if stored := tg.TotalStoredEvents(); stored != expected {
		v.addf("invariant: representation stores %d events, coverage implies %d", stored, expected)
	}
	return v.err()
}

// CheckSymmetric validates the undirected input contract: at every
// timestamp, each edge (u, v) occurs as often as (v, u), as
// events.Log.Symmetrize leaves a log. An undirected build reads a
// vertex's in-edges as its out-edges, which is right only for such a
// log.
func CheckSymmetric(l *events.Log) error {
	var v violations
	evs := l.Events()
	balance := make(map[[2]int32]int)
	for lo := 0; lo < len(evs); {
		hi := lo
		for hi < len(evs) && evs[hi].T == evs[lo].T {
			e := evs[hi]
			balance[[2]int32{e.U, e.V}]++
			balance[[2]int32{e.V, e.U}]--
			hi++
		}
		for uv, d := range balance {
			if d > 0 {
				v.addf("invariant: edge (%d,%d) occurs %d more times than (%d,%d) at t=%d",
					uv[0], uv[1], d, uv[1], uv[0], evs[lo].T)
			}
		}
		clear(balance)
		lo = hi
	}
	return v.err()
}

// hasEntry reports whether the out-adjacency of local vertex u holds an
// entry (c, t). Rows are sorted by (neighbor, time) but duplicates are
// legal, so a linear scan with early exit is simplest and safe.
func hasEntry(mw *tcsr.MultiWindow, u, c int32, t int64) bool {
	lo, hi := mw.OutRow[u], mw.OutRow[u+1]
	for i := lo; i < hi; i++ {
		if mw.OutCol[i] > c {
			return false
		}
		if mw.OutCol[i] == c && mw.OutTime[i] == t {
			return true
		}
	}
	return false
}
