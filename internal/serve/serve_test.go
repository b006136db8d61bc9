package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pmpr/internal/events"
	"pmpr/internal/results"
)

// testSeries is a tiny hand-computed series over 6 vertices and 3
// windows; every rank is a dyadic rational, so expected JSON values
// compare exactly.
func testSeries() *results.Series {
	return &results.Series{
		Spec:        events.WindowSpec{T0: 100, Delta: 10, Slide: 5, Count: 3},
		NumVertices: 6,
		Windows: []results.WindowRanks{
			{Window: 0, Iterations: 12, Converged: true,
				Vertices: []int32{0, 2, 4}, Ranks: []float64{0.5, 0.25, 0.125}},
			{Window: 1, Iterations: 7, Converged: true, UsedPartialInit: true,
				Vertices: []int32{1, 2, 4}, Ranks: []float64{0.125, 0.5, 0.25}},
			{Window: 2, Iterations: 3, Converged: false,
				Vertices: []int32{2}, Ranks: []float64{1}},
		},
	}
}

func newTestService(t *testing.T) *Service {
	t.Helper()
	st, err := NewStore(testSeries())
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	svc := NewService(0)
	svc.Publish(st)
	return svc
}

func newTestServer(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	svc := newTestService(t)
	mux := http.NewServeMux()
	svc.Mount(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return svc, ts
}

// get fetches path and decodes the JSON body into out (when non-nil),
// returning the response for header/status assertions.
func get(t *testing.T, ts *httptest.Server, path string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", path, err)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: body %q: %v", path, body, err)
		}
	}
	return resp
}

func TestStoreTopK(t *testing.T) {
	st, err := NewStore(testSeries())
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.TopK(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := []Ranked{{2, 0.5}, {4, 0.25}, {1, 0.125}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TopK(1,10) = %v, want %v", got, want)
	}
	if got, _ := st.TopK(0, 2); len(got) != 2 || got[0].Vertex != 0 || got[1].Vertex != 2 {
		t.Fatalf("TopK(0,2) = %v", got)
	}
	if _, err := st.TopK(3, 1); err == nil {
		t.Fatal("out-of-range window accepted")
	}
}

func TestStoreTrajectory(t *testing.T) {
	st, err := NewStore(testSeries())
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.Trajectory(2)
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{0.25, 0.5, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Trajectory(2) = %v, want %v", got, want)
	}
	if got, _ := st.Trajectory(3); !reflect.DeepEqual(got, []float64{0, 0, 0}) {
		t.Fatalf("Trajectory(3) = %v, want zeros", got)
	}
	if _, err := st.Trajectory(6); err == nil {
		t.Fatal("out-of-range vertex accepted")
	}
}

func TestStoreMovers(t *testing.T) {
	st, err := NewStore(testSeries())
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.Movers(0, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := []Mover{
		{Vertex: 0, From: 0.5, To: 0, Delta: -0.5},
		{Vertex: 2, From: 0.25, To: 0.5, Delta: 0.25},
		{Vertex: 1, From: 0, To: 0.125, Delta: 0.125},
		{Vertex: 4, From: 0.125, To: 0.25, Delta: 0.125},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Movers(0,1) = %v, want %v", got, want)
	}
	if got, _ := st.Movers(0, 1, 2); len(got) != 2 || got[0].Vertex != 0 || got[1].Vertex != 2 {
		t.Fatalf("Movers k=2 = %v", got)
	}
}

func TestNewStoreRejectsCorruptSource(t *testing.T) {
	bad := testSeries()
	bad.Windows[1].Vertices = []int32{4, 1, 2} // unsorted
	if _, err := NewStore(bad); err == nil {
		t.Fatal("unsorted source accepted")
	}
	bad = testSeries()
	bad.Windows[0].Vertices[2] = 17 // out of range
	if _, err := NewStore(bad); err == nil {
		t.Fatal("out-of-range vertex accepted")
	}
	bad = testSeries()
	bad.Windows[2].Window = 0 // mislabeled
	if _, err := NewStore(bad); err == nil {
		t.Fatal("mislabeled window accepted")
	}
	bad = testSeries()
	bad.NumVertices = -1
	if _, err := NewStore(bad); err == nil {
		t.Fatal("negative universe accepted")
	}
}

func TestHandleTopK(t *testing.T) {
	_, ts := newTestServer(t)
	var got topkResponse
	resp := get(t, ts, "/v1/topk?window=1&k=2", &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("first query X-Cache = %q", resp.Header.Get("X-Cache"))
	}
	if got.Window != 1 || got.Start != 105 || got.End != 115 {
		t.Fatalf("window meta = %+v", got)
	}
	want := []Ranked{{2, 0.5}, {4, 0.25}}
	if !reflect.DeepEqual(got.Ranks, want) {
		t.Fatalf("ranks = %v, want %v", got.Ranks, want)
	}

	// Identical query (different parameter spelling) hits the cache.
	var again topkResponse
	resp = get(t, ts, "/v1/topk?k=2&window=01", &again)
	if resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("second query X-Cache = %q, want hit", resp.Header.Get("X-Cache"))
	}
	if !reflect.DeepEqual(again, got) {
		t.Fatalf("cached answer differs: %+v vs %+v", again, got)
	}
}

func TestHandleTopKErrors(t *testing.T) {
	_, ts := newTestServer(t)
	for path, status := range map[string]int{
		"/v1/topk":                http.StatusBadRequest, // missing window
		"/v1/topk?window=nope":    http.StatusBadRequest,
		"/v1/topk?window=7":       http.StatusNotFound,
		"/v1/topk?window=-1":      http.StatusNotFound,
		"/v1/topk?window=0&k=-3":  http.StatusBadRequest,
		"/v1/topk?window=0&k=abc": http.StatusBadRequest,
	} {
		var e map[string]string
		resp := get(t, ts, path, &e)
		if resp.StatusCode != status {
			t.Errorf("GET %s: status %d, want %d", path, resp.StatusCode, status)
		}
		if e["error"] == "" {
			t.Errorf("GET %s: no structured error body", path)
		}
	}
}

func TestHandleTopKClampsK(t *testing.T) {
	svc, ts := newTestServer(t)
	svc.MaxK = 2
	var got topkResponse
	get(t, ts, "/v1/topk?window=1&k=999999", &got)
	if got.K != 2 || len(got.Ranks) != 2 {
		t.Fatalf("k not clamped: %+v", got)
	}
}

func TestHandleTrajectory(t *testing.T) {
	_, ts := newTestServer(t)
	var got trajectoryResponse
	resp := get(t, ts, "/v1/vertex/2/trajectory", &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got.Vertex != 2 || got.Windows != 3 || got.T0 != 100 || got.Delta != 10 || got.Slide != 5 {
		t.Fatalf("meta = %+v", got)
	}
	if want := []float64{0.25, 0.5, 1}; !reflect.DeepEqual(got.Ranks, want) {
		t.Fatalf("ranks = %v, want %v", got.Ranks, want)
	}
	if resp := get(t, ts, "/v1/vertex/99/trajectory", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("vertex 99 status %d", resp.StatusCode)
	}
	if resp := get(t, ts, "/v1/vertex/abc/trajectory", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("vertex abc status %d", resp.StatusCode)
	}
}

func TestHandleMovers(t *testing.T) {
	_, ts := newTestServer(t)
	var got moversResponse
	resp := get(t, ts, "/v1/movers?from=0&to=1&k=3", &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	want := []Mover{
		{Vertex: 0, From: 0.5, To: 0, Delta: -0.5},
		{Vertex: 2, From: 0.25, To: 0.5, Delta: 0.25},
		{Vertex: 1, From: 0, To: 0.125, Delta: 0.125},
	}
	if !reflect.DeepEqual(got.Movers, want) {
		t.Fatalf("movers = %v, want %v", got.Movers, want)
	}
	if resp := get(t, ts, "/v1/movers?from=0&to=9", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("bad to-window status %d", resp.StatusCode)
	}
	if resp := get(t, ts, "/v1/movers?from=0", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing to status %d", resp.StatusCode)
	}
}

func TestHandleWindows(t *testing.T) {
	_, ts := newTestServer(t)
	get(t, ts, "/v1/topk?window=0&k=1", nil) // warm one cache entry
	var got windowsResponse
	resp := get(t, ts, "/v1/windows", &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got.Spec.Count != 3 || got.NumVertices != 6 || got.Generation != 1 {
		t.Fatalf("header = %+v", got)
	}
	if len(got.Windows) != 3 {
		t.Fatalf("windows = %v", got.Windows)
	}
	w1 := got.Windows[1]
	if w1.Window != 1 || w1.Entries != 3 || w1.Iterations != 7 || !w1.Converged ||
		!w1.UsedPartialInit || w1.Start != 105 || w1.End != 115 || w1.MaxRank != 0.5 {
		t.Fatalf("window 1 info = %+v", w1)
	}
	if got.Cache.Entries != 1 {
		t.Fatalf("cache stats = %+v", got.Cache)
	}
}

func TestUnpublishedStoreAnswers503(t *testing.T) {
	svc := NewService(0)
	mux := http.NewServeMux()
	svc.Mount(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	for _, path := range []string{
		"/v1/topk?window=0", "/v1/vertex/0/trajectory", "/v1/movers?from=0&to=1", "/v1/windows",
	} {
		var e map[string]string
		resp := get(t, ts, path, &e)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("GET %s before publish: status %d, want 503", path, resp.StatusCode)
		}
		if e["error"] == "" {
			t.Errorf("GET %s: no structured error", path)
		}
	}
}

func TestPublishInvalidatesCachedAnswers(t *testing.T) {
	svc, ts := newTestServer(t)
	var first topkResponse
	get(t, ts, "/v1/topk?window=2&k=1", &first)
	if first.Ranks[0].Vertex != 2 {
		t.Fatalf("first answer = %+v", first)
	}
	// Publish a new series where window 2's top vertex changed.
	s2 := testSeries()
	s2.Windows[2].Vertices = []int32{5}
	st, err := NewStore(s2)
	if err != nil {
		t.Fatal(err)
	}
	svc.Publish(st)
	var second topkResponse
	resp := get(t, ts, "/v1/topk?window=2&k=1", &second)
	if resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("post-publish X-Cache = %q, want miss", resp.Header.Get("X-Cache"))
	}
	if second.Ranks[0].Vertex != 5 {
		t.Fatalf("stale answer served after publish: %+v", second)
	}
	if g := svc.Store().Generation(); g != 2 {
		t.Fatalf("generation = %d, want 2", g)
	}
}

func TestCacheLRU(t *testing.T) {
	c := NewCache(2)
	c.Put("a", []byte("1"))
	c.Put("b", []byte("2"))
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing")
	}
	c.Put("c", []byte("3")) // evicts b (a was just used)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if v, ok := c.Get("a"); !ok || string(v) != "1" {
		t.Fatalf("a = %q, %v", v, ok)
	}
	c.Put("a", []byte("1x"))
	if v, _ := c.Get("a"); string(v) != "1x" {
		t.Fatalf("replace failed: %q", v)
	}
	st := c.Stats()
	if st.Entries != 2 || st.Evicts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFlightGroupCoalesces(t *testing.T) {
	var g flightGroup
	ctx := context.Background()
	var calls atomic.Int32
	release := make(chan struct{})
	started := make(chan struct{})
	leaderFn := func(context.Context) ([]byte, error) {
		close(started)
		<-release
		calls.Add(1)
		return []byte("answer"), nil
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if v, err, shared := g.Do(ctx, "k", leaderFn); err != nil || shared || string(v) != "answer" {
			t.Errorf("leader Do = %q, %v, shared=%v", v, err, shared)
		}
	}()
	<-started // the flight is now registered and blocked
	const followers = 16
	var sharedCount atomic.Int32
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err, shared := g.Do(ctx, "k", func(context.Context) ([]byte, error) {
				calls.Add(1)
				return []byte("answer"), nil
			})
			if err != nil || string(v) != "answer" {
				t.Errorf("follower Do = %q, %v", v, err)
			}
			if shared {
				sharedCount.Add(1)
			}
		}()
	}
	// Give the followers ample time to reach Do while the leader holds
	// the flight open, then release everyone.
	time.Sleep(100 * time.Millisecond)
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1 (coalesced)", n)
	}
	if n := sharedCount.Load(); n != followers {
		t.Fatalf("%d/%d followers shared the flight", n, followers)
	}
}

func TestConcurrentIdenticalQueries(t *testing.T) {
	// Hammer one URL from many goroutines (run with -race): every
	// response must be identical and OK, and the backing compute path
	// must stay consistent under the cache/coalesce interleavings.
	_, ts := newTestServer(t)
	var want topkResponse
	get(t, ts, "/v1/topk?window=1&k=3", &want)
	const n = 32
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/topk?window=1&k=3")
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var got topkResponse
			if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK || !reflect.DeepEqual(got, want) {
				errs <- fmt.Errorf("status %d body %+v", resp.StatusCode, got)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestAnswerHitPathDoesNotAllocate(t *testing.T) {
	svc := newTestService(t)
	st := svc.Store()
	ctx := context.Background()
	key := canonicalKey(st.Generation(), "topk", 1, 3)
	compute := func(context.Context) ([]byte, error) {
		ranks, err := st.TopK(1, 3)
		if err != nil {
			return nil, err
		}
		return marshalBody(topkResponse{Window: 1, K: 3, Ranks: ranks})
	}
	if _, source, err := svc.answer(ctx, key, compute); err != nil || source != sourceMiss {
		t.Fatalf("prime: %v, %v", source, err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		b, source, err := svc.answer(ctx, key, compute)
		if err != nil || source != sourceHit || len(b) == 0 {
			t.Fatalf("hit path: %q, %v", source, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("cache-hit path allocates %v allocs/op, want 0", allocs)
	}
}

// TestMissPathAllocs bounds what a cache miss allocates: Movers only
// its result, and each compute step (the store call plus its encoder)
// only the store result and the exact-length response body.
func TestMissPathAllocs(t *testing.T) {
	st, err := NewStore(benchSeries(8, 2000, 400))
	if err != nil {
		t.Fatal(err)
	}
	spec := st.Spec()
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := st.Movers(1, 2, 20); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Fatalf("Movers allocates %v allocs/op, want 1", allocs)
	}
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	for name, compute := range map[string]func(){
		"topk": func() {
			ranks, _ := st.TopK(3, 100)
			encodeTopK(3, spec.Start(3), spec.End(3), 100, ranks)
		},
		"trajectory": func() {
			ranks, _ := st.Trajectory(17)
			encodeTrajectory(17, spec, ranks)
		},
		"movers": func() {
			movers, _ := st.Movers(1, 2, 20)
			encodeMovers(1, 2, 20, movers)
		},
	} {
		if allocs := testing.AllocsPerRun(100, compute); allocs != 2 {
			t.Errorf("%s compute allocates %v allocs/op, want 2 (store result and body)", name, allocs)
		}
	}
}
