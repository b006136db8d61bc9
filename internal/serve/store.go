// Package serve implements the rank-serving layer behind cmd/pmserve:
// an immutable, concurrently shared RankStore built from a postmortem
// rank series, plus the HTTP/JSON query service (top-k, trajectories,
// window-over-window movers) with per-query LRU caching and
// singleflight request coalescing. The paper's premise is that
// downstream applications consume the postmortem rank vectors
// (Sec. 2.2); this package is that downstream application — the first
// adversarial consumer of the .pmrs format — and serves the vectors at
// interactive latency the way Kairos and DeltaGraph argue a postmortem
// layout should pay off.
package serve

import (
	"fmt"
	"math"
	"slices"

	"pmpr/internal/events"
	"pmpr/internal/results"
)

// Ranked is one (vertex, rank) pair of a top-k answer.
type Ranked struct {
	Vertex int32   `json:"vertex"`
	Rank   float64 `json:"rank"`
}

// Mover is one window-over-window rank change: the vertex's rank in
// each of the two compared windows and the signed delta.
type Mover struct {
	Vertex int32   `json:"vertex"`
	From   float64 `json:"from_rank"`
	To     float64 `json:"to_rank"`
	Delta  float64 `json:"delta"`
}

// WindowInfo is the per-window status row of the /v1/windows listing.
type WindowInfo struct {
	Window          int     `json:"window"`
	Start           int64   `json:"start"`
	End             int64   `json:"end"`
	Entries         int     `json:"entries"`
	Iterations      int     `json:"iterations"`
	Converged       bool    `json:"converged"`
	UsedPartialInit bool    `json:"used_partial_init"`
	MaxRank         float64 `json:"max_rank"`
}

// storeWindow is one window's immutable serving layout: the sparse
// vector sorted by vertex (for lookups and merges) plus the entry
// order sorted by descending rank (the precomputed top-k answer).
type storeWindow struct {
	meta     WindowInfo
	vertices []int32
	ranks    []float64
	// byRank holds entry indices into vertices/ranks, sorted by rank
	// descending with ascending vertex as the tie-break; TopK(k) is the
	// first k, already in answer order.
	byRank []int32
}

// windowSpan is a vertex's window range [lo, hi).
type windowSpan struct{ lo, hi int32 }

// RankStore is an immutable in-memory rank series laid out for
// queries. All methods are safe for unlimited concurrent use: nothing
// is mutated after NewStore returns, so readers share it without
// locks. Swapping in a new store (pmserve -solve publishing a fresh
// series) is the caller's concern — see Service.Publish.
type RankStore struct {
	spec        events.WindowSpec
	numVertices int32
	windows     []storeWindow
	// span holds, per vertex, the window range [lo, hi) its entries lie
	// in (lo == hi for a vertex with no entry): Trajectory searches only
	// those windows and leaves the rest at 0. It reaches only the largest
	// vertex id any window names, not the declared universe, so a header
	// declaring billions of vertices costs nothing; ids past it have no
	// entries.
	span []windowSpan
	// generation distinguishes successively published stores; the query
	// cache folds it into every key so entries from a replaced store can
	// never be served against the new one.
	generation uint64
}

// NewStore builds the immutable serving layout from a rank series.
// The source is validated window by window — NewStore is deliberately
// paranoid even about data that internal/results has already checked,
// because it also accepts in-process sources (core.Series.Export) that
// never passed through the decoder.
func NewStore(src results.SeriesSource) (*RankStore, error) {
	spec, n := src.SpecAndSize()
	if n < 0 {
		return nil, fmt.Errorf("serve: negative vertex count %d", n)
	}
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("serve: invalid window spec: %w", err)
	}
	st := &RankStore{
		spec: spec, numVertices: n,
		windows: make([]storeWindow, spec.Count),
	}
	var order rankOrder // the byRank sort's scratch, reused for every window
	for i := 0; i < spec.Count; i++ {
		wr := src.WindowAt(i)
		if err := wr.Validate(i, n); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		sw := storeWindow{
			meta: WindowInfo{
				Window:          i,
				Start:           spec.Start(i),
				End:             spec.End(i),
				Entries:         wr.Len(),
				Iterations:      wr.Iterations,
				Converged:       wr.Converged,
				UsedPartialInit: wr.UsedPartialInit,
			},
			vertices: wr.Vertices,
			ranks:    wr.Ranks,
			byRank:   make([]int32, wr.Len()),
		}
		if k := len(sw.vertices); k > 0 && int(sw.vertices[k-1]) >= len(st.span) {
			// The last vertex is the window's largest.
			st.span = append(st.span, make([]windowSpan, int(sw.vertices[k-1])+1-len(st.span))...)
		}
		for _, v := range sw.vertices {
			sp := &st.span[v]
			if sp.hi == 0 {
				sp.lo = int32(i)
			}
			sp.hi = int32(i) + 1
		}
		order.sort(sw.byRank, sw.ranks)
		if len(sw.byRank) > 0 {
			sw.meta.MaxRank = sw.ranks[sw.byRank[0]]
		}
		st.windows[i] = sw
	}
	return st, nil
}

// radixCutoff is the window size from which byRank is built by radix
// passes; shorter windows keep the comparison sort, which a radix pass's
// 256-bucket histograms cost more than. perf/'s short series has at
// most 98 entries per window, its overlap series ~935.
const radixCutoff = 256

// rankOrder orders a window's entries by descending rank with
// ascending entry index (= ascending vertex, which Validate makes
// strictly increasing) as the tie-break. Its buffers are reused from
// window to window, so they end sized to the largest window.
type rankOrder struct {
	pairs      []rankEntry
	keys, tmpK []uint64
	tmpI       []int32
}

// rankEntry is one (rank, entry index) pair of the comparison sort.
type rankEntry struct {
	rank float64
	idx  int32
}

// sort writes into byRank the entry indices of ranks in byRank order.
func (o *rankOrder) sort(byRank []int32, ranks []float64) {
	if len(ranks) < radixCutoff {
		o.comparison(byRank, ranks)
		return
	}
	o.radix(byRank, ranks)
}

// comparison sorts (rank, entry index) pairs with a comparison sort.
func (o *rankOrder) comparison(byRank []int32, ranks []float64) {
	o.pairs = o.pairs[:0]
	for j, r := range ranks {
		o.pairs = append(o.pairs, rankEntry{rank: r, idx: int32(j)})
	}
	slices.SortFunc(o.pairs, func(x, y rankEntry) int {
		switch {
		case x.rank > y.rank:
			return -1
		case x.rank < y.rank:
			return 1
		}
		return int(x.idx - y.idx)
	})
	for j, p := range o.pairs {
		byRank[j] = p.idx
	}
}

// radix is a stable LSD radix sort over 8-bit digits of the key
// ^Float64bits(rank). Validate guarantees every rank is positive and
// finite, and the bits of positive finite floats ascend as the floats
// do, so the key ascends as the rank descends. Stability keeps equal
// keys in ascending entry order, which is the tie-break. A digit that
// is the same in every key moves nothing and is skipped.
func (o *rankOrder) radix(byRank []int32, ranks []float64) {
	n := len(ranks)
	o.keys = slices.Grow(o.keys[:0], n)[:n]
	o.tmpK = slices.Grow(o.tmpK[:0], n)[:n]
	o.tmpI = slices.Grow(o.tmpI[:0], n)[:n]
	var counts [8][256]int32
	keys, idx := o.keys, byRank
	for j, r := range ranks {
		k := ^math.Float64bits(r)
		keys[j], idx[j] = k, int32(j)
		for d := range counts {
			counts[d][byte(k>>(8*d))]++
		}
	}
	dstK, dstI := o.tmpK, o.tmpI
	for d := range counts {
		c := &counts[d]
		if c[byte(keys[0]>>(8*d))] == int32(n) {
			continue
		}
		var sum int32
		for b, m := range c {
			c[b] = sum
			sum += m
		}
		shift := 8 * d
		for j, k := range keys {
			b := byte(k >> shift)
			dstK[c[b]], dstI[c[b]] = k, idx[j]
			c[b]++
		}
		keys, dstK = dstK, keys
		idx, dstI = dstI, idx
	}
	if &idx[0] != &byRank[0] {
		copy(byRank, idx)
	}
}

// Spec returns the window spec the store serves.
func (s *RankStore) Spec() events.WindowSpec { return s.spec }

// NumWindows returns the number of windows.
func (s *RankStore) NumWindows() int { return len(s.windows) }

// NumVertices returns the size of the vertex universe.
func (s *RankStore) NumVertices() int32 { return s.numVertices }

// Generation returns the publish generation Service.Publish assigned
// (0 for a store that was never published).
func (s *RankStore) Generation() uint64 { return s.generation }

// TopK returns the k highest-ranked vertices of window w, descending
// by rank with ascending vertex id as the tie-break. The answer order
// is precomputed at build time, so a query is a bounds check and k
// slice reads.
func (s *RankStore) TopK(w, k int) ([]Ranked, error) {
	if w < 0 || w >= len(s.windows) {
		return nil, fmt.Errorf("serve: window %d outside [0, %d)", w, len(s.windows))
	}
	if k < 0 {
		return nil, fmt.Errorf("serve: negative k %d", k)
	}
	sw := &s.windows[w]
	if k > len(sw.byRank) {
		k = len(sw.byRank)
	}
	out := make([]Ranked, k)
	for i := 0; i < k; i++ {
		e := sw.byRank[i]
		out[i] = Ranked{Vertex: sw.vertices[e], Rank: sw.ranks[e]}
	}
	return out, nil
}

// Trajectory returns vertex v's rank in every window (0 where the
// vertex has no positive rank): the per-vertex time series downstream
// analyses plot. Only the windows inside the vertex's span are
// searched.
func (s *RankStore) Trajectory(v int32) ([]float64, error) {
	if v < 0 || v >= s.numVertices {
		return nil, fmt.Errorf("serve: vertex %d outside [0, %d)", v, s.numVertices)
	}
	out := make([]float64, len(s.windows))
	if int(v) >= len(s.span) {
		return out, nil
	}
	sp := s.span[v]
	for w := sp.lo; w < sp.hi; w++ {
		sw := &s.windows[w]
		if i, ok := slices.BinarySearch(sw.vertices, v); ok {
			out[w] = sw.ranks[i]
		}
	}
	return out, nil
}

// Movers compares windows from and to and returns the k vertices with
// the largest absolute rank change, ties broken by ascending vertex
// id. A vertex absent from one of the windows contributes its full
// rank as the delta, so risers from (and fallers to) zero are ranked
// alongside in-both changes. One linear merge over the union of the
// two sparse vectors feeds a bounded heap of the best k, which is then
// sorted in place; the result is the only allocation.
func (s *RankStore) Movers(from, to, k int) ([]Mover, error) {
	if from < 0 || from >= len(s.windows) {
		return nil, fmt.Errorf("serve: window %d outside [0, %d)", from, len(s.windows))
	}
	if to < 0 || to >= len(s.windows) {
		return nil, fmt.Errorf("serve: window %d outside [0, %d)", to, len(s.windows))
	}
	if k < 0 {
		return nil, fmt.Errorf("serve: negative k %d", k)
	}
	a, b := &s.windows[from], &s.windows[to]
	if most := len(a.vertices) + len(b.vertices); k > most {
		k = most // the union has at most this many entries
	}
	h := make([]Mover, 0, k)
	i, j := 0, 0
	for i < len(a.vertices) || j < len(b.vertices) {
		var m Mover
		switch {
		case j >= len(b.vertices) || (i < len(a.vertices) && a.vertices[i] < b.vertices[j]):
			m = Mover{Vertex: a.vertices[i], From: a.ranks[i], Delta: -a.ranks[i]}
			i++
		case i >= len(a.vertices) || b.vertices[j] < a.vertices[i]:
			m = Mover{Vertex: b.vertices[j], To: b.ranks[j], Delta: b.ranks[j]}
			j++
		default: // present in both
			m = Mover{Vertex: a.vertices[i], From: a.ranks[i], To: b.ranks[j]}
			m.Delta = m.To - m.From
			i++
			j++
		}
		switch {
		case len(h) < k:
			h = append(h, m)
			siftUp(h, len(h)-1)
		case k > 0 && worse(&h[0], &m):
			h[0] = m
			siftDown(h, 0)
		}
	}
	// Pop the worst kept entry to the back until the heap is empty,
	// leaving h in answer order.
	for n := len(h) - 1; n > 0; n-- {
		h[0], h[n] = h[n], h[0]
		siftDown(h[:n], 0)
	}
	return h, nil
}

// worse reports whether x comes after y in movers order: a smaller
// |delta|, or an equal one and a larger vertex id.
func worse(x, y *Mover) bool {
	ax, ay := abs(x.Delta), abs(y.Delta)
	if ax < ay {
		return true
	}
	if ax > ay {
		return false
	}
	return x.Vertex > y.Vertex
}

// siftUp and siftDown maintain h as a heap whose root is the worst
// entry kept.
func siftUp(h []Mover, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !worse(&h[i], &h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func siftDown(h []Mover, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && worse(&h[r], &h[c]) {
			c = r
		}
		if !worse(&h[c], &h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// WindowInfos returns the per-window status listing, in window order.
func (s *RankStore) WindowInfos() []WindowInfo {
	out := make([]WindowInfo, len(s.windows))
	for i := range s.windows {
		out[i] = s.windows[i].meta
	}
	return out
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
