package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentScrape hammers the metrics endpoints from several
// goroutines while other goroutines mutate the registry's counters and
// register new metrics. It exists to be run under -race: the registry
// guards its map with a mutex and the counters are atomics, and this
// test is the executable proof.
func TestConcurrentScrape(t *testing.T) {
	reg := NewRegistry()
	base, worker := &Counter{}, &Counter{}
	reg.RegisterCounter("pmpr_test_events_total", "events seen", base)
	reg.Gauge("pmpr_test_load", "instantaneous load", func() float64 {
		return float64(base.Value()) / 2
	})
	srv := httptest.NewServer(NewMux(reg))
	defer srv.Close()

	const (
		writers = 4
		readers = 4
		rounds  = 50
	)
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			reg.RegisterCounter("pmpr_test_worker_total", "per-worker work items", worker)
			for j := 0; j < rounds; j++ {
				base.Inc()
				worker.Add(2)
			}
		}(i)
	}
	scrape := func() error {
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		_, err = io.ReadAll(resp.Body)
		return err
	}
	errs := make(chan error, readers*rounds/5)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < rounds/5; j++ {
				if err := scrape(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent scrape: %v", err)
	}

	// After the dust settles the text exposition carries the final sums.
	var sb strings.Builder
	reg.WriteProm(&sb)
	out := sb.String()
	for _, want := range []string{
		"pmpr_test_events_total 200",
		"pmpr_test_worker_total 400",
		"pmpr_test_load 100",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}
