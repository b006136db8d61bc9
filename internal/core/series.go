package core

import (
	"fmt"
	"sort"

	"pmpr/internal/events"
	"pmpr/internal/results"
	"pmpr/internal/tcsr"
)

// WindowStatus classifies how a window's result was obtained under the
// solve stage's fault-tolerance policy.
type WindowStatus uint8

const (
	// WindowOK is a first-attempt solve.
	WindowOK WindowStatus = iota
	// WindowResumed was loaded from a checkpoint instead of solved.
	WindowResumed
	// WindowRetried succeeded after at least one failed attempt.
	WindowRetried
	// WindowDegraded succeeded only on the serial fallback after every
	// attempt under the plan's vertex loop failed.
	WindowDegraded
	// WindowFailed is quarantined: every attempt (including the degrade
	// fallback) failed. The result carries no ranks and Err is set.
	WindowFailed
)

// String names the status for reports and logs.
func (s WindowStatus) String() string {
	switch s {
	case WindowOK:
		return "ok"
	case WindowResumed:
		return "resumed"
	case WindowRetried:
		return "retried"
	case WindowDegraded:
		return "degraded"
	case WindowFailed:
		return "failed"
	default:
		return fmt.Sprintf("WindowStatus(%d)", int(s))
	}
}

// WindowResult holds the PageRank outcome for one window of the
// sequence.
type WindowResult struct {
	// WindowRanks is the window's index, iteration count, convergence,
	// warm start (Eq. 4) and ranks: every positive rank, in ascending
	// global id, converted once from the unit's dense vector when the
	// window is decided. Vertices and Ranks are nil when the ranks were
	// discarded (Config.DiscardRanks) or the window was quarantined,
	// and empty but non-nil for a retained window with no active vertex.
	results.WindowRanks
	// ActiveVertices is |V_i| of the window graph.
	ActiveVertices int32
	// CoreVertices is how many active vertices the window's iterations
	// ran over: under conjugate gradient its 2-core, what the peel left
	// (0 for a forest, solved exactly with no iteration); under the
	// sweeps, which do not peel, every active vertex. A window restored
	// from a checkpoint reads 0.
	CoreVertices int32
	// FinalResidual is the L1 delta of the last sweep performed, or,
	// under conjugate gradient, ‖r‖₁/(1−α) of the ranks' true residual
	// r (below the tolerance iff Converged).
	FinalResidual float64
	// ErrorBound bounds the L1 distance of the ranks from the window's
	// exact PageRank vector: (1−α)/α · FinalResidual (DESIGN.md
	// "Per-window error bound"). It is derived from the residual the
	// window stopped at, not from the tolerance, so it also holds for a
	// window that stopped at MaxIter.
	ErrorBound float64
	// WallSeconds is the solve wall time of this window.
	WallSeconds float64
	// Worker is the pool worker id whose window-loop range solved this
	// window, or -1 when the window loop ran outside the pool (serial
	// and app-level runs).
	Worker int
	// Status records how the result was obtained (ok, resumed from a
	// checkpoint, retried, degraded to the serial fallback, or failed).
	Status WindowStatus
	// Attempts counts solve attempts; 0 for resumed windows, 1 for a
	// clean first-attempt solve.
	Attempts int
	// Err is the terminal failure of a quarantined window (Status ==
	// WindowFailed); nil otherwise.
	Err error
}

// rankEntries converts a window's dense local-id rank vector to its
// retained entries: every positive rank, in ascending global id. It
// reads x only at list, the window's active vertices in ascending local
// (hence global: GlobalIDs is sorted) id, which hold every positive
// entry. Both slices are sized exactly, so a retained window pins
// nothing beyond its entries, and are non-nil even when empty.
func rankEntries(mw *tcsr.MultiWindow, x []float64, list []int32) ([]int32, []float64) {
	n := 0
	for _, v := range list {
		if x[v] > 0 {
			n++
		}
	}
	vs, rs := make([]int32, 0, n), make([]float64, 0, n)
	for _, v := range list {
		if r := x[v]; r > 0 {
			vs = append(vs, mw.GlobalID(v))
			rs = append(rs, r)
		}
	}
	return vs, rs
}

// denseRankEntries is rankEntries over every entry of x, for a vector
// that comes without its active list (a checkpoint's).
func denseRankEntries(mw *tcsr.MultiWindow, x []float64) ([]int32, []float64) {
	n := 0
	for _, r := range x {
		if r > 0 {
			n++
		}
	}
	vs, rs := make([]int32, 0, n), make([]float64, 0, n)
	for local, r := range x {
		if r > 0 {
			vs = append(vs, mw.GlobalID(int32(local)))
			rs = append(rs, r)
		}
	}
	return vs, rs
}

// Rank returns the PageRank of the global vertex id in this window; 0
// for vertices outside the window graph. It panics if the ranks were
// discarded (Config.DiscardRanks); callers that cannot statically rule
// out a discard (anything downstream of a user-supplied Config) must
// use RankOK instead.
func (r *WindowResult) Rank(global int32) float64 {
	if !r.HasRanks() {
		// The discard/retain decision is made once, at Config time, so
		// reading a discarded vector is a programming error at the call
		// site, not a runtime condition to handle; RankOK is the
		// non-panicking variant for dynamic configs.
		//pmvet:ignore panic -- documented misuse contract; RankOK is the error-safe accessor
		panic("core: ranks were discarded (Config.DiscardRanks)")
	}
	rank, _ := r.WindowRanks.Rank(global)
	return rank
}

// RankOK is the non-panicking variant of Rank: ok is false when the
// ranks were discarded (Config.DiscardRanks), and the rank is 0 for
// vertices outside the window graph.
func (r *WindowResult) RankOK(global int32) (rank float64, ok bool) {
	if !r.HasRanks() {
		return 0, false
	}
	rank, _ = r.WindowRanks.Rank(global)
	return rank, true
}

// HasRanks reports whether the ranks were retained.
func (r *WindowResult) HasRanks() bool { return r.Vertices != nil }

// ForEach calls f for every vertex with a positive rank, in ascending
// global-id order. Like Rank it panics when the ranks were discarded
// (Config.DiscardRanks); check HasRanks first when the config is not
// statically known.
func (r *WindowResult) ForEach(f func(global int32, rank float64)) {
	if !r.HasRanks() {
		// Same contract as Rank: HasRanks/RankOK are the guards for
		// dynamically-configured callers.
		//pmvet:ignore panic -- documented misuse contract; HasRanks is the guard
		panic("core: ranks were discarded (Config.DiscardRanks)")
	}
	r.WindowRanks.ForEach(f)
}

// Dense expands the window's ranks to a dense vector over the global
// vertex universe.
func (r *WindowResult) Dense(numVertices int32) []float64 {
	out := make([]float64, numVertices)
	r.ForEach(func(g int32, rank float64) { out[g] = rank })
	return out
}

// Ranked is a (vertex, rank) pair.
type Ranked struct {
	Vertex int32
	Rank   float64
}

// TopK returns the k highest-ranked vertices of the window, descending
// by rank with ascending vertex id as the tie-break.
func (r *WindowResult) TopK(k int) []Ranked {
	var all []Ranked
	r.ForEach(func(g int32, rank float64) { all = append(all, Ranked{g, rank}) })
	sort.Slice(all, func(i, j int) bool {
		if all[i].Rank > all[j].Rank {
			return true
		}
		if all[i].Rank < all[j].Rank {
			return false
		}
		return all[i].Vertex < all[j].Vertex
	})
	if k < len(all) {
		all = all[:k]
	}
	return all
}

// Series is the postmortem analysis output: one WindowResult per window
// of the sliding sequence.
type Series struct {
	Spec        events.WindowSpec
	NumVertices int32
	Results     []WindowResult
	// Report carries the run's observability rollup (phase timers,
	// warm-start hit rate, sweep counts, scheduler stats).
	Report *RunReport
}

// Window returns the result for window i.
func (s *Series) Window(i int) *WindowResult { return &s.Results[i] }

// Len returns the number of windows.
func (s *Series) Len() int { return len(s.Results) }

// TotalIterations sums the PageRank iterations over all windows — the
// work measure partial initialization reduces.
func (s *Series) TotalIterations() int {
	t := 0
	for i := range s.Results {
		t += s.Results[i].Iterations
	}
	return t
}

// AllConverged reports whether every window reached the tolerance.
func (s *Series) AllConverged() bool {
	for i := range s.Results {
		if !s.Results[i].Converged {
			return false
		}
	}
	return true
}

// Quarantined returns the indices of windows that failed terminally
// (Status == WindowFailed), in ascending order. An empty slice means
// every window holds a usable result.
func (s *Series) Quarantined() []int {
	var out []int
	for i := range s.Results {
		if s.Results[i].Status == WindowFailed {
			out = append(out, i)
		}
	}
	return out
}

// AllOK reports whether no window was quarantined.
func (s *Series) AllOK() bool { return len(s.Quarantined()) == 0 }

// String summarizes the series for logs and test failures.
func (s *Series) String() string {
	return fmt.Sprintf("series{windows=%d iterations=%d converged=%v}",
		s.Len(), s.TotalIterations(), s.AllConverged())
}
