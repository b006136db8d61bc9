package core

import (
	"fmt"

	"pmpr/internal/events"
	"pmpr/internal/results"
)

// Export returns the series as the results serialization interface,
// which *Series implements: each window's retained entries are already
// in the results format. It requires retained ranks (not
// Config.DiscardRanks) and no quarantined window; call CheckExport
// first.
func (s *Series) Export() results.SeriesSource { return s }

// CheckExport reports the windows that leave the series without ranks
// to export: quarantined ones, or every window when the ranks were
// discarded. nil means Export can serialize every window.
func (s *Series) CheckExport() error {
	if q := s.Quarantined(); len(q) > 0 {
		return fmt.Errorf("core: cannot export the rank series: windows %v were quarantined and have no ranks", q)
	}
	for i := range s.Results {
		if !s.Results[i].HasRanks() {
			return fmt.Errorf("core: cannot export the rank series: window %d kept no ranks (Config.DiscardRanks)", i)
		}
	}
	return nil
}

// SpecAndSize returns the window spec and the vertex universe; with
// WindowAt it implements results.SeriesSource.
func (s *Series) SpecAndSize() (events.WindowSpec, int32) { return s.Spec, s.NumVertices }

// WindowAt returns window i's retained entries and metadata.
func (s *Series) WindowAt(i int) results.WindowRanks { return s.Results[i].WindowRanks }
