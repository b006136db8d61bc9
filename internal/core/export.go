package core

import (
	"fmt"

	"pmpr/internal/events"
	"pmpr/internal/results"
)

// Export adapts the series to the results serialization interface. It
// requires retained ranks (not Config.DiscardRanks) and no quarantined
// window; call CheckExport first.
func (s *Series) Export() results.SeriesSource { return seriesSource{s} }

// CheckExport reports the quarantined windows that leave the series
// without a rank vector to export; nil means Export can serialize every
// window of a series solved with retained ranks.
func (s *Series) CheckExport() error {
	if q := s.Quarantined(); len(q) > 0 {
		return fmt.Errorf("core: cannot export the rank series: windows %v were quarantined and have no ranks", q)
	}
	return nil
}

type seriesSource struct{ s *Series }

func (x seriesSource) SpecAndSize() (events.WindowSpec, int32) {
	return x.s.Spec, x.s.NumVertices
}

func (x seriesSource) WindowAt(i int) results.WindowRanks {
	r := x.s.Window(i)
	wr := results.WindowRanks{
		Window:          r.Window,
		Iterations:      r.Iterations,
		Converged:       r.Converged,
		UsedPartialInit: r.UsedPartialInit,
	}
	r.ForEach(func(g int32, rank float64) {
		wr.Vertices = append(wr.Vertices, g)
		wr.Ranks = append(wr.Ranks, rank)
	})
	return wr
}
