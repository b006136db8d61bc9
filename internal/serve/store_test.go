package serve

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"pmpr/internal/events"
	"pmpr/internal/results"
)

// Vertices refSeries places on purpose, so the reference tests cover
// each trajectory shape whatever the random draw.
const (
	refAbsent    = 0 // no entry in any window
	refFirstOnly = 1 // an entry in window 0 only
	refLastOnly  = 2 // an entry in the last window only
	refGapped    = 3 // entries in the first and last windows, none between
	refEmpty     = 4 // the window refSeries leaves empty
)

// refSeries draws a random series for the reference tests: entries
// with gaps inside each vertex's window span, ranks tied on purpose
// (so rank and |delta| ties occur), ranks below 1e-6 (encoding/json's
// 'e' form) and an occasional rank at or above 1e21, one empty window,
// and the fixed vertices above.
func refSeries(seed int64, windows int, n int32) *results.Series {
	rng := rand.New(rand.NewSource(seed))
	tied := []float64{0.5, 0.25, 0.125, 0.0625, 3e-7}
	rank := func() float64 {
		switch rng.Intn(8) {
		case 0, 1, 2:
			return tied[rng.Intn(len(tied))]
		case 3, 4:
			return (1 - rng.Float64()) * 1e-6
		case 5:
			if rng.Intn(20) == 0 {
				return (1 + rng.Float64()) * 1e21
			}
		}
		return 1 - rng.Float64()
	}
	s := &results.Series{
		Spec:        events.WindowSpec{T0: 1000, Delta: 50, Slide: 7, Count: windows},
		NumVertices: n,
	}
	for w := 0; w < windows; w++ {
		wr := results.WindowRanks{Window: w, Iterations: w + 1, Converged: w%3 != 0}
		for v := int32(0); v < n && w != refEmpty; v++ {
			var in bool
			switch v {
			case refAbsent:
			case refFirstOnly:
				in = w == 0
			case refLastOnly:
				in = w == windows-1
			case refGapped:
				in = w == 0 || w == windows-1
			default:
				in = rng.Intn(3) == 0
			}
			if in {
				wr.Vertices = append(wr.Vertices, v)
				wr.Ranks = append(wr.Ranks, rank())
			}
		}
		s.Windows = append(s.Windows, wr)
	}
	return s
}

func newRefStore(t *testing.T) *RankStore {
	t.Helper()
	st, err := NewStore(refSeries(7, 12, 300))
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	return st
}

// bruteMovers is the reference movers answer: the full union of both
// windows, sorted by |delta| descending then vertex ascending, cut to k.
func bruteMovers(st *RankStore, from, to, k int) []Mover {
	a, b := &st.windows[from], &st.windows[to]
	byVertex := make(map[int32]*Mover)
	for i, v := range a.vertices {
		byVertex[v] = &Mover{Vertex: v, From: a.ranks[i]}
	}
	for i, v := range b.vertices {
		m, ok := byVertex[v]
		if !ok {
			m = &Mover{Vertex: v}
			byVertex[v] = m
		}
		m.To = b.ranks[i]
	}
	all := make([]Mover, 0, len(byVertex))
	for _, m := range byVertex {
		all = append(all, *m)
	}
	for i := range all {
		all[i].Delta = all[i].To - all[i].From
	}
	sort.Slice(all, func(x, y int) bool {
		ax, ay := abs(all[x].Delta), abs(all[y].Delta)
		if ax > ay {
			return true
		}
		if ax < ay {
			return false
		}
		return all[x].Vertex < all[y].Vertex
	})
	if k < len(all) {
		all = all[:k]
	}
	return all
}

func TestMoversMatchesFullSort(t *testing.T) {
	st := newRefStore(t)
	last := st.NumWindows() - 1
	pairs := [][2]int{{0, 1}, {1, 0}, {3, 3}, {0, last}, {refEmpty, 1}, {2, refEmpty}, {refEmpty, refEmpty}, {5, 9}}
	var ties int
	for _, p := range pairs {
		from, to := p[0], p[1]
		union := len(bruteMovers(st, from, to, 1<<30))
		for _, k := range []int{0, 1, 7, 20, DefaultMaxK, union, union + 5} {
			got, err := st.Movers(from, to, k)
			if err != nil {
				t.Fatalf("Movers(%d, %d, %d): %v", from, to, k, err)
			}
			want := bruteMovers(st, from, to, k)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Movers(%d, %d, %d) = %v,\nwant %v", from, to, k, got, want)
			}
		}
		all := bruteMovers(st, from, to, union)
		for i := 1; i < len(all); i++ {
			if !(abs(all[i].Delta) < abs(all[i-1].Delta)) {
				ties++
			}
		}
	}
	if ties == 0 {
		t.Fatal("no |delta| ties drawn; the tie-break went unchecked")
	}
}

func TestTrajectoryMatchesPerWindowSearch(t *testing.T) {
	st := newRefStore(t)
	last := st.NumWindows() - 1
	for v := int32(0); v < st.NumVertices(); v++ {
		got, err := st.Trajectory(v)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, st.NumWindows())
		for w := range st.windows {
			sw := &st.windows[w]
			i := sort.Search(len(sw.vertices), func(i int) bool { return sw.vertices[i] >= v })
			if i < len(sw.vertices) && sw.vertices[i] == v {
				want[w] = sw.ranks[i]
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Trajectory(%d) = %v,\nwant %v", v, got, want)
		}
	}
	// The fixed vertices have the shapes their names promise.
	for v, present := range map[int32][]int{
		refAbsent: nil, refFirstOnly: {0}, refLastOnly: {last}, refGapped: {0, last},
	} {
		got, _ := st.Trajectory(v)
		var at []int
		for w, r := range got {
			if r > 0 {
				at = append(at, w)
			}
		}
		if !reflect.DeepEqual(at, present) {
			t.Fatalf("vertex %d present in windows %v, want %v", v, at, present)
		}
	}
}

// TestStoreIgnoresDeclaredUniverse feeds NewStore a tiny .pmrs file
// whose header declares 2³¹−1 vertices: the header plus one empty
// window. It passes results.Read, and the store must build without
// sizing anything by the declared count; a trajectory of an id no
// window names reads zero in every window.
func TestStoreIgnoresDeclaredUniverse(t *testing.T) {
	const n = math.MaxInt32
	var buf bytes.Buffer
	src := &results.Series{
		Spec:        events.WindowSpec{T0: 0, Delta: 10, Slide: 10, Count: 1},
		NumVertices: n,
		Windows:     []results.WindowRanks{{Window: 0}},
	}
	if err := results.Write(&buf, src); err != nil {
		t.Fatal(err)
	}
	if buf.Len() > 64 {
		t.Fatalf("file is %d bytes; want a header and one empty window", buf.Len())
	}
	decoded, err := results.Read(&buf)
	if err != nil {
		t.Fatalf("results.Read: %v", err)
	}
	st, err := NewStore(decoded)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	if len(st.span) != 0 || st.NumVertices() != n {
		t.Fatalf("span has %d entries for %d declared vertices, want none", len(st.span), st.NumVertices())
	}
	got, err := st.Trajectory(n - 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []float64{0}) {
		t.Fatalf("Trajectory(%d) = %v, want [0]", n-1, got)
	}
}

// refByRank is the reference byRank order of sw: a comparison sort by
// rank descending, then vertex ascending.
func refByRank(sw *storeWindow) []int32 {
	order := make([]int32, len(sw.vertices))
	for j := range order {
		order[j] = int32(j)
	}
	sort.Slice(order, func(x, y int) bool {
		rx, ry := sw.ranks[order[x]], sw.ranks[order[y]]
		if rx > ry {
			return true
		}
		if rx < ry {
			return false
		}
		return sw.vertices[order[x]] < sw.vertices[order[y]]
	})
	return order
}

func TestTopKOrder(t *testing.T) {
	st := newRefStore(t)
	var ties int
	for w := range st.windows {
		sw := &st.windows[w]
		order := refByRank(sw)
		if !reflect.DeepEqual(sw.byRank, order) {
			t.Fatalf("window %d byRank = %v,\nwant %v", w, sw.byRank, order)
		}
		got, err := st.TopK(w, len(order))
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range order {
			if got[i] != (Ranked{Vertex: sw.vertices[e], Rank: sw.ranks[e]}) {
				t.Fatalf("window %d TopK[%d] = %v", w, i, got[i])
			}
			if i > 0 && !(got[i].Rank < got[i-1].Rank) {
				ties++
			}
		}
	}
	if ties == 0 {
		t.Fatal("no rank ties drawn; the tie-break went unchecked")
	}
}

// TestByRankOrderAcrossCutoff checks byRank against the comparison
// order on windows on both sides of radixCutoff, with ranks drawn to
// trip a radix sort: bit-exact ties, neighbours one ULP apart,
// subnormals, exponents spread over the whole float64 range, a window
// whose entries are all equal, and a mix of these.
func TestByRankOrderAcrossCutoff(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	draws := []struct {
		name string
		rank func() float64
	}{
		{"ties", func() float64 { return []float64{0.25, 1.0 / 3, 1e-5}[rng.Intn(3)] }},
		{"ulp-neighbours", func() float64 { return math.Float64frombits(math.Float64bits(1.0/7) + uint64(rng.Intn(5))) }},
		{"subnormal", func() float64 { return math.Float64frombits(1 + uint64(rng.Int63n(1<<52-1))) }},
		{"exponents", func() float64 { return math.Ldexp(0.5+rng.Float64()/2, rng.Intn(2044)-1073) }},
		{"all-equal", func() float64 { return 0.125 }},
		{"mixed", func() float64 {
			switch rng.Intn(4) {
			case 0:
				return math.SmallestNonzeroFloat64 * float64(1+rng.Intn(3))
			case 1:
				return math.MaxFloat64
			case 2:
				return math.Nextafter(0.5, float64(rng.Intn(2)))
			}
			return rng.ExpFloat64() + math.SmallestNonzeroFloat64
		}},
	}
	sizes := []int{radixCutoff - 1, radixCutoff, radixCutoff + 1, 2100}
	const n = 5000
	s := &results.Series{
		Spec:        events.WindowSpec{T0: 0, Delta: 10, Slide: 10, Count: len(draws) * len(sizes)},
		NumVertices: n,
	}
	for _, d := range draws {
		for _, k := range sizes {
			wr := results.WindowRanks{Window: len(s.Windows)}
			for _, v := range rng.Perm(n)[:k] {
				wr.Vertices = append(wr.Vertices, int32(v))
			}
			slices.Sort(wr.Vertices)
			for range wr.Vertices {
				wr.Ranks = append(wr.Ranks, d.rank())
			}
			s.Windows = append(s.Windows, wr)
		}
	}
	st, err := NewStore(s)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	for w := range st.windows {
		sw := &st.windows[w]
		if want := refByRank(sw); !reflect.DeepEqual(sw.byRank, want) {
			d, k := draws[w/len(sizes)], sizes[w%len(sizes)]
			for i := range want {
				if sw.byRank[i] != want[i] {
					t.Fatalf("%s, %d entries: byRank[%d] = entry %d (rank %v), want entry %d (rank %v)",
						d.name, k, i, sw.byRank[i], sw.ranks[sw.byRank[i]], want[i], sw.ranks[want[i]])
				}
			}
		}
	}
}
