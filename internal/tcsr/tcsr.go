// Package tcsr implements the paper's temporal CSR representation
// (Sec. 4.1, Fig. 3) and its partition into multi-window graphs.
//
// A temporal CSR extends CSR with a parallel timestamp vector: the
// adjacency of a vertex is the concatenation of "runs", one run per
// distinct neighbor, holding the ascending timestamps of the events
// between the pair. An edge exists in window i iff one of its run's
// timestamps falls inside [T_i, T_i+delta].
//
// Because |Events| can be arbitrarily larger than any single window's
// edge count, the window sequence is split uniformly into multi-window
// graphs; each stores only the events relevant to its windows, over a
// relabeled local vertex set. Events whose lifetime straddles a
// boundary are replicated, so sum_w |E_w| >= |Events| (the paper's
// memory/work trade-off).
package tcsr

import (
	"fmt"
	"sort"

	"pmpr/internal/events"
)

// Temporal is the postmortem representation of a temporal graph: the
// sliding-window spec plus one MultiWindow graph per contiguous chunk of
// windows.
type Temporal struct {
	Spec     events.WindowSpec
	Directed bool
	// Symmetric is the log's Symmetric mark: every edge is stored with
	// its reverse, live in the same windows, so a vertex's in-runs and
	// out-runs name the same neighbours.
	Symmetric bool
	// MWs are the multi-window graphs in window order.
	MWs []*MultiWindow

	numVertices int32
	winToMW     []int // global window index -> index into MWs
}

// MultiWindow is the temporal CSR of a contiguous range of windows over
// its local (relabeled) vertex set.
//
// The raw CSR fields are exported for the hot kernels in internal/core;
// they must be treated as read-only. InRow/InCol/InTime describe
// in-adjacency (used by the pull PageRank kernel); OutRow/OutCol/OutTime
// describe out-adjacency (used to compute per-window out-degrees). For
// an undirected (symmetrized) build the two views alias the same
// arrays.
type MultiWindow struct {
	// WinLo, WinHi delimit the global window indices [WinLo, WinHi).
	WinLo, WinHi int

	// In-adjacency: the in-runs of local vertex v occupy
	// InCol[InRow[v]:InRow[v+1]] (local neighbor ids) and the parallel
	// InTime slice, sorted by (neighbor, time).
	InRow  []int64
	InCol  []int32
	InTime []int64

	// Out-adjacency, same layout keyed by source vertex.
	OutRow  []int64
	OutCol  []int32
	OutTime []int64

	spec     events.WindowSpec // global spec
	globalID []int32           // local -> global vertex id
	localID  map[int32]int32   // global -> local vertex id
	events   int               // number of events stored (= len(OutCol))
}

// Build constructs the postmortem representation of l for the given
// window spec, partitioned into numMW multi-window graphs. When
// directed is false the adjacency is shared between the in and out
// views (the caller should have symmetrized the log; Build does not
// symmetrize). The log's Symmetric mark carries onto the result.
func Build(l *events.Log, spec events.WindowSpec, numMW int, directed bool) (*Temporal, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if numMW < 1 {
		return nil, fmt.Errorf("tcsr: number of multi-window graphs %d must be >= 1", numMW)
	}
	if numMW > spec.Count {
		numMW = spec.Count
	}
	t := &Temporal{
		Spec:        spec,
		Directed:    directed,
		Symmetric:   l.Symmetric(),
		numVertices: l.NumVertices(),
		winToMW:     make([]int, spec.Count),
	}
	base := spec.Count / numMW
	rem := spec.Count % numMW
	lo := 0
	for i := 0; i < numMW; i++ {
		hi := lo + base
		if i < rem {
			hi++
		}
		mw, err := buildMW(l, spec, lo, hi, directed)
		if err != nil {
			return nil, err
		}
		t.MWs = append(t.MWs, mw)
		for w := lo; w < hi; w++ {
			t.winToMW[w] = i
		}
		lo = hi
	}
	return t, nil
}

// NumVertices returns the size of the global vertex universe.
func (t *Temporal) NumVertices() int32 { return t.numVertices }

// ForWindow returns the multi-window graph containing global window w.
func (t *Temporal) ForWindow(w int) *MultiWindow { return t.MWs[t.winToMW[w]] }

// TotalStoredEvents returns sum_w |E_w|: the number of event copies
// across all multi-window graphs (>= |Events| due to boundary
// replication).
func (t *Temporal) TotalStoredEvents() int64 {
	var s int64
	for _, mw := range t.MWs {
		s += int64(mw.events)
	}
	return s
}

// MemoryBytes estimates the representation's footprint, the quantity
// the paper sizes against system memory: encoding*(sum |Vw| + 2*|Ew|)
// plus the local-id maps.
func (t *Temporal) MemoryBytes() int64 {
	var b int64
	for _, mw := range t.MWs {
		b += int64(len(mw.InRow))*8 + int64(len(mw.InCol))*4 + int64(len(mw.InTime))*8
		if mw.OutColAliased() {
			continue
		}
		b += int64(len(mw.OutRow))*8 + int64(len(mw.OutCol))*4 + int64(len(mw.OutTime))*8
	}
	return b
}

// OutColAliased reports whether the out view shares storage with the in
// view (undirected build).
func (mw *MultiWindow) OutColAliased() bool {
	return len(mw.InCol) > 0 && len(mw.OutCol) > 0 && &mw.InCol[0] == &mw.OutCol[0]
}

// NumLocal returns |Vw|, the size of the local vertex set.
func (mw *MultiWindow) NumLocal() int32 { return int32(len(mw.globalID)) }

// NumWindows returns how many windows this multi-window graph covers.
func (mw *MultiWindow) NumWindows() int { return mw.WinHi - mw.WinLo }

// NumEvents returns |Ew|, the number of stored events.
func (mw *MultiWindow) NumEvents() int { return mw.events }

// GlobalID maps a local vertex id to the global id.
func (mw *MultiWindow) GlobalID(local int32) int32 { return mw.globalID[local] }

// GlobalIDs returns the local->global table (read-only), sorted
// ascending by global id.
func (mw *MultiWindow) GlobalIDs() []int32 { return mw.globalID }

// LocalID maps a global vertex id to the local id, or -1 when the
// vertex does not appear in this multi-window graph.
func (mw *MultiWindow) LocalID(global int32) int32 {
	if l, ok := mw.localID[global]; ok {
		return l
	}
	return -1
}

// Window returns the closed interval [ts, te] of global window w, which
// must lie in [WinLo, WinHi).
func (mw *MultiWindow) Window(w int) (ts, te int64) {
	return mw.spec.Start(w), mw.spec.End(w)
}

// Spec returns the global window spec.
func (mw *MultiWindow) Spec() events.WindowSpec { return mw.spec }

// RunActive reports whether any timestamp of the ascending slice times
// lies in [ts, te]. It is the edge-liveness test of the representation.
func RunActive(times []int64, ts, te int64) bool {
	// Runs are typically tiny (a handful of repeat events per pair);
	// a linear scan with early exit beats binary search in practice.
	for _, t := range times {
		if t > te {
			return false
		}
		if t >= ts {
			return true
		}
	}
	return false
}

// ActiveEdges counts the distinct directed edges active in window w.
func (mw *MultiWindow) ActiveEdges(w int) int64 {
	ts, te := mw.Window(w)
	var m int64
	n := mw.NumLocal()
	for u := int32(0); u < n; u++ {
		start, end := mw.OutRow[u], mw.OutRow[u+1]
		i := start
		for i < end {
			j := i + 1
			for j < end && mw.OutCol[j] == mw.OutCol[i] {
				j++
			}
			if RunActive(mw.OutTime[i:j], ts, te) {
				m++
			}
			i = j
		}
	}
	return m
}

func buildMW(l *events.Log, spec events.WindowSpec, winLo, winHi int, directed bool) (*MultiWindow, error) {
	ts := spec.Start(winLo)
	te := spec.End(winHi - 1)
	slice := l.Slice(ts, te)

	// Filter to events covered by at least one window in [winLo, winHi):
	// when Slide > Delta the union of windows has gaps inside [ts, te].
	relevant := slice
	if spec.Slide > spec.Delta {
		relevant = make([]events.Event, 0, len(slice))
		for _, e := range slice {
			lo, hi, ok := spec.Covering(e.T)
			if ok && lo < winHi && hi >= winLo {
				relevant = append(relevant, e)
			}
		}
	}

	mw := &MultiWindow{
		WinLo:   winLo,
		WinHi:   winHi,
		spec:    spec,
		localID: make(map[int32]int32),
		events:  len(relevant),
	}

	// Local vertex set: endpoints of relevant events, relabeled in
	// ascending global-id order so partial initialization across
	// consecutive windows of the same multi-window stays index-aligned.
	seen := make(map[int32]bool)
	for _, e := range relevant {
		seen[e.U] = true
		seen[e.V] = true
	}
	mw.globalID = make([]int32, 0, len(seen))
	for g := range seen {
		mw.globalID = append(mw.globalID, g)
	}
	sort.Slice(mw.globalID, func(i, j int) bool { return mw.globalID[i] < mw.globalID[j] })
	for local, g := range mw.globalID {
		mw.localID[g] = int32(local)
	}

	mw.OutRow, mw.OutCol, mw.OutTime = buildSide(relevant, mw, false)
	if directed {
		mw.InRow, mw.InCol, mw.InTime = buildSide(relevant, mw, true)
	} else {
		mw.InRow, mw.InCol, mw.InTime = mw.OutRow, mw.OutCol, mw.OutTime
	}
	return mw, nil
}

// buildSide builds one temporal CSR side over local ids, runs sorted by
// (neighbor, time).
func buildSide(evs []events.Event, mw *MultiWindow, reversed bool) ([]int64, []int32, []int64) {
	n := mw.NumLocal()
	row := make([]int64, n+1)
	for _, e := range evs {
		src := e.U
		if reversed {
			src = e.V
		}
		row[mw.localID[src]+1]++
	}
	for i := int32(0); i < n; i++ {
		row[i+1] += row[i]
	}
	col := make([]int32, len(evs))
	tim := make([]int64, len(evs))
	next := make([]int64, n)
	copy(next, row[:n])
	for _, e := range evs {
		src, dst := e.U, e.V
		if reversed {
			src, dst = dst, src
		}
		ls := mw.localID[src]
		p := next[ls]
		col[p] = mw.localID[dst]
		tim[p] = e.T
		next[ls] = p + 1
	}
	// Sort each adjacency run by (neighbor, time). Events arrive
	// time-sorted, so within equal neighbors the times are already
	// ascending; a stable sort by neighbor preserves that.
	for u := int32(0); u < n; u++ {
		lo, hi := row[u], row[u+1]
		run := runSorter{col: col[lo:hi], tim: tim[lo:hi]}
		sort.Stable(run)
	}
	return row, col, tim
}

type runSorter struct {
	col []int32
	tim []int64
}

func (r runSorter) Len() int           { return len(r.col) }
func (r runSorter) Less(i, j int) bool { return r.col[i] < r.col[j] }
func (r runSorter) Swap(i, j int) {
	r.col[i], r.col[j] = r.col[j], r.col[i]
	r.tim[i], r.tim[j] = r.tim[j], r.tim[i]
}
