package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"pmpr/internal/serve"
)

// workload is one end-to-end session: solve an event log to a .pmrs
// rank series, load it into the rank server, and serve a traffic mix.
// The four workloads cross two solve inputs (points of the paper's
// Table 1 grid whose postmortem win differs) with two traffic mixes
// (one that lives in the response cache, one that defeats it), so every
// optimization has a workload that exercises it and one that bypasses
// it. Every workload reports every end-to-end metric, so the solve runs
// in all four. BENCHMARK.json records why each exists.
type workload struct {
	Name      string
	Dataset   string  // internal/gen profile
	Scale     float64 // internal/gen scale
	DeltaDays float64 // window size δ
	Slide     int64   // sliding offset sw, seconds
	// Churn selects the cache-defeating mix: uniform keys over a space
	// far larger than the cache, and a freshly decoded copy of the store
	// published as a new generation before every step. Without it the
	// mix is Zipf-skewed toward recent windows and top vertices, and
	// read-only.
	Churn bool
	// Nominal is the open-loop rate p50_ms is read at, in requests per
	// second: well below what the server sustains, where queueing
	// amplifies a shared machine's noise least.
	Nominal float64
}

var workloads = []workload{
	{
		// 634 windows; consecutive windows share ~97% of their edges, so
		// warm start and SpMM batching carry the solve.
		Name: "overlap-zipf", Dataset: "wikitalk", Scale: 0.2, DeltaDays: 90, Slide: 259200,
		Nominal: 4000,
	},
	{
		Name: "overlap-churn", Dataset: "wikitalk", Scale: 0.2, DeltaDays: 90, Slide: 259200,
		Churn: true, Nominal: 2000,
	},
	{
		// 2600 ten-day windows, each sweeping a multi-window CSR that spans
		// ~430 days: wasted edge scans and per-window overhead dominate.
		Name: "short-zipf", Dataset: "stackoverflow", Scale: 0.02, DeltaDays: 10, Slide: 86400,
		Nominal: 4000,
	},
	{
		Name: "short-churn", Dataset: "stackoverflow", Scale: 0.02, DeltaDays: 10, Slide: 86400,
		Churn: true, Nominal: 2000,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// The query mix: 70% top-k, 20% trajectories, 10% adjacent-window
// movers.
const (
	shareTopK       = 0.7
	shareTrajectory = 0.2
	zipfExponent    = 1.1
	// The churn mix draws k uniformly from [1, churnTopK] for top-k and
	// [1, churnMoversK] for movers: the same mean sizes as the zipf mix
	// (k ∈ {10, 100} and k = 10), over a key space hundreds of times the
	// cache's size.
	churnTopK    = 200
	churnMoversK = 20
)

type endpoint uint8

const (
	epTopK endpoint = iota
	epTrajectory
	epMovers
)

var endpointNames = [...]string{"topk", "trajectory", "movers"}

func (e endpoint) String() string { return endpointNames[e] }

// query is one /v1 request: top-k of window A, the trajectory of vertex
// A, or the movers from window A to window B.
type query struct {
	EP   endpoint
	A, B int
	K    int
}

// appendPath appends the query's request path to b.
func (q query) appendPath(b []byte) []byte {
	switch q.EP {
	case epTopK:
		b = append(b, "/v1/topk?window="...)
		b = strconv.AppendInt(b, int64(q.A), 10)
	case epTrajectory:
		b = append(b, "/v1/vertex/"...)
		b = strconv.AppendInt(b, int64(q.A), 10)
		return append(b, "/trajectory"...)
	default:
		b = append(b, "/v1/movers?from="...)
		b = strconv.AppendInt(b, int64(q.A), 10)
		b = append(b, "&to="...)
		b = strconv.AppendInt(b, int64(q.B), 10)
	}
	b = append(b, "&k="...)
	return strconv.AppendInt(b, int64(q.K), 10)
}

// queryGen draws a workload's queries against one store. One goroutine
// uses a generator at a time; fork makes another for a second one.
type queryGen struct {
	rng   *rand.Rand
	churn bool
	// Zipf draws favour the most recent complete window (recent) and,
	// for trajectories, the vertices ranked highest in it (ranked).
	recent   int
	ranked   []serve.Ranked
	winZipf  *rand.Zipf
	vertZipf *rand.Zipf
	windows  int
	vertices int32
}

func newQueryGen(st *serve.RankStore, churn bool, seed int64) (*queryGen, error) {
	spec := st.Spec()
	w := st.NumWindows()
	// The last ceil(δ/sw) windows run past the end of the data.
	recent := w - 1 - int((spec.Delta+spec.Slide-1)/spec.Slide)
	if recent < 1 {
		recent = w - 1
	}
	ranked, err := st.TopK(recent, int(st.NumVertices()))
	if err != nil {
		return nil, err
	}
	if len(ranked) == 0 {
		return nil, fmt.Errorf("window %d has no ranked vertices", recent)
	}
	g := &queryGen{churn: churn, recent: recent, ranked: ranked, windows: w, vertices: st.NumVertices()}
	return g.fork(seed), nil
}

// fork returns a generator of the same mix with its own random stream.
func (g *queryGen) fork(seed int64) *queryGen {
	f := *g
	f.rng = rand.New(rand.NewSource(seed))
	f.winZipf = rand.NewZipf(f.rng, zipfExponent, 1, uint64(f.recent-1))
	f.vertZipf = rand.NewZipf(f.rng, zipfExponent, 1, uint64(len(f.ranked)-1))
	return &f
}

func (g *queryGen) next() query {
	u := g.rng.Float64()
	if g.churn {
		switch {
		case u < shareTopK:
			return query{EP: epTopK, A: g.rng.Intn(g.windows), K: 1 + g.rng.Intn(churnTopK)}
		case u < shareTopK+shareTrajectory:
			return query{EP: epTrajectory, A: int(g.rng.Int31n(g.vertices))}
		default:
			to := 1 + g.rng.Intn(g.windows-1)
			return query{EP: epMovers, A: to - 1, B: to, K: 1 + g.rng.Intn(churnMoversK)}
		}
	}
	switch {
	case u < shareTopK:
		k := 10
		if g.rng.Intn(2) == 1 {
			k = 100
		}
		return query{EP: epTopK, A: g.recent - int(g.winZipf.Uint64()), K: k}
	case u < shareTopK+shareTrajectory:
		return query{EP: epTrajectory, A: int(g.ranked[g.vertZipf.Uint64()].Vertex)}
	default:
		to := g.recent - int(g.winZipf.Uint64())
		return query{EP: epMovers, A: to - 1, B: to, K: 10}
	}
}
