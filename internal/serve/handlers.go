package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"pmpr/internal/events"
	"pmpr/internal/fault"
)

// Service is the query front-end over an atomically swappable
// RankStore: it owns the response cache and the request coalescer and
// mounts the /v1 endpoints. A Service starts empty (every query
// answers 503) until Publish hands it a store; pmserve -load publishes
// once at startup, pmserve -solve publishes when the in-process engine
// finishes, and every Publish bumps the generation so cached responses
// from the previous store can never leak into the new one.
type Service struct {
	store atomic.Pointer[RankStore]
	gen   atomic.Uint64
	cache *Cache
	group flightGroup

	// degraded holds the reason the service is serving stale data (a
	// failed republish or re-solve); nil when healthy. While set, every
	// query response carries an X-Stale header and /readyz reports the
	// degradation — the service keeps answering from the last published
	// generation rather than going dark.
	degraded atomic.Pointer[string]

	// MaxK caps the k accepted by top-k and movers queries, bounding
	// per-query work and response size. Set before Mount; defaults to
	// DefaultMaxK.
	MaxK int

	// Guard, when non-nil, supplies the serving path's robustness
	// layer: Mount wraps every /v1 handler with its middleware
	// (deadline, rate limit, drain gate, panic recovery) and answer
	// acquires its compute limiter on cache misses. Set before Mount.
	Guard *Guard
}

// DefaultMaxK is the top-k/movers size cap NewService installs.
const DefaultMaxK = 1000

// NewService creates a Service with a response cache of cacheEntries
// entries (0 = DefaultCacheEntries) and no published store.
func NewService(cacheEntries int) *Service {
	return &Service{cache: NewCache(cacheEntries), MaxK: DefaultMaxK}
}

// Publish atomically swaps st in as the served store and assigns it
// the next generation. Queries in flight keep reading the store they
// started with; new queries see st immediately. Old cache entries are
// left to age out of the LRU — their keys carry the old generation, so
// they can never answer a query against st. Publish itself cannot
// fail; the guarded path (fault injection, panic containment, degraded
// bookkeeping) is TryPublish.
func (s *Service) Publish(st *RankStore) {
	st.generation = s.gen.Add(1)
	s.store.Store(st)
}

// TryPublish is the hardened publish path: the serve.store.swap fault
// point fires before the swap, a panic anywhere in the swap is
// contained as a structured *PanicError, and a nil store is rejected —
// in every failure case the previously published generation keeps
// serving untouched. A successful TryPublish clears any degraded state
// (fresh data supersedes a stale generation). Callers that cannot
// recover a failed publish (no previous generation) treat the error as
// fatal; callers that can, degrade: SetDegraded and keep serving.
func (s *Service) TryPublish(st *RankStore) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Op: "publish", Value: v}
			if g := s.Guard; g != nil {
				g.Panics.Inc()
			}
		}
	}()
	if ferr := fault.Inject(PointStoreSwap); ferr != nil {
		return fmt.Errorf("serve: store swap: %w", ferr)
	}
	if st == nil {
		return errors.New("serve: refusing to publish a nil store")
	}
	s.Publish(st)
	s.ClearDegraded()
	return nil
}

// SetDegraded marks the service as serving stale data for the given
// reason. Queries keep answering from the last published store with an
// X-Stale header; /readyz reports the degradation.
func (s *Service) SetDegraded(reason string) { s.degraded.Store(&reason) }

// ClearDegraded returns the service to healthy.
func (s *Service) ClearDegraded() { s.degraded.Store(nil) }

// Degraded returns the degradation reason and whether one is set.
func (s *Service) Degraded() (string, bool) {
	if p := s.degraded.Load(); p != nil {
		return *p, true
	}
	return "", false
}

// Store returns the currently published store, or nil before the first
// Publish.
func (s *Service) Store() *RankStore { return s.store.Load() }

// CacheStats snapshots the response cache counters.
func (s *Service) CacheStats() CacheStats { return s.cache.Stats() }

// WaitFills blocks until every in-flight coalesced fill has returned;
// the drain path calls it after the guard stops admitting new work so
// process exit does not race a live computation.
func (s *Service) WaitFills() { s.group.Wait() }

// queryError carries the HTTP status a failed query maps to, plus an
// optional Retry-After hint for shed/unready responses.
type queryError struct {
	status     int
	msg        string
	retryAfter string
}

// Error returns the query failure message.
func (e *queryError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &queryError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func notFound(format string, args ...any) error {
	return &queryError{status: http.StatusNotFound, msg: fmt.Sprintf(format, args...)}
}

// statusClientClosedRequest is the (nginx-convention) status for a
// request whose client went away before the answer was ready; nothing
// meaningful can be delivered, but the connection still gets a
// structured close instead of silence.
const statusClientClosedRequest = 499

// writeJSONError renders err as {"error": ...} with its mapped status
// (500 for non-query errors) and any Retry-After hint it carries.
func writeJSONError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var qe *queryError
	if errors.As(err, &qe) {
		status = qe.status
		if qe.retryAfter != "" {
			w.Header().Set("Retry-After", qe.retryAfter)
		}
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	b, _ := json.Marshal(map[string]string{"error": err.Error()})
	w.Write(append(b, '\n'))
}

// Response source labels for the X-Cache header: every answer declares
// whether it came from the cache, a fresh computation, or another
// caller's in-flight computation.
const (
	sourceHit       = "hit"
	sourceMiss      = "miss"
	sourceCoalesced = "coalesced"
)

// answer resolves one canonical query: cache first, then a coalesced
// computation whose successful result is cached for the next caller.
// The cache-hit path performs no allocation — it is a map lookup and
// an LRU list splice returning the shared response bytes — and bypasses
// the compute limiter entirely, so cached traffic stays fast while an
// overloaded miss path sheds. ctx bounds only this caller's wait: the
// fill itself runs detached (see flightGroup.Do), so a canceled caller
// neither strands coalesced followers nor poisons the cache.
func (s *Service) answer(ctx context.Context, key string, compute func(context.Context) ([]byte, error)) (data []byte, source string, err error) {
	if b, ok := s.cache.Get(key); ok {
		return b, sourceHit, nil
	}
	release, err := s.Guard.acquireCompute(ctx)
	if err != nil {
		return nil, "", err
	}
	defer release()
	b, err, shared := s.group.Do(ctx, key, func(fctx context.Context) ([]byte, error) {
		if ferr := fault.Inject(PointCoalesceLeader); ferr != nil {
			return nil, fmt.Errorf("serve: coalesced fill: %w", ferr)
		}
		b, err := compute(fctx)
		if err != nil {
			return nil, err
		}
		if ferr := fault.Inject(PointCacheFill); ferr != nil {
			return nil, fmt.Errorf("serve: cache fill: %w", ferr)
		}
		s.cache.Put(key, b)
		return b, nil
	})
	if err != nil {
		return nil, "", err
	}
	source = sourceMiss
	if shared {
		source = sourceCoalesced
	}
	return b, source, nil
}

// mapQueryError converts transport-layer failures into their HTTP
// shape and counts them: a missed deadline is 504 (Gateway Timeout), a
// client that went away is 499, a contained panic is a 500 that bumps
// the panic counter. Query errors (400/404/...) pass through.
func (s *Service) mapQueryError(err error) error {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		if g := s.Guard; g != nil {
			g.Timeouts.Inc()
		}
		return &queryError{status: http.StatusGatewayTimeout, msg: "request deadline exceeded"}
	case errors.Is(err, context.Canceled):
		return &queryError{status: statusClientClosedRequest, msg: "client closed request"}
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		if g := s.Guard; g != nil {
			g.Panics.Inc()
		}
	}
	return err
}

// serveQuery runs the cache/coalesce/compute pipeline for a request
// and writes the JSON answer with its X-Cache provenance (and an
// X-Stale marker while the service is degraded).
func (s *Service) serveQuery(w http.ResponseWriter, r *http.Request, key string, compute func(context.Context) ([]byte, error)) {
	data, source, err := s.answer(r.Context(), key, compute)
	if err != nil {
		writeJSONError(w, s.mapQueryError(err))
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json; charset=utf-8")
	h.Set("X-Cache", source)
	if _, degraded := s.Degraded(); degraded {
		h.Set("X-Stale", "true")
	}
	if ferr := fault.Inject(PointResponseWrite); ferr != nil {
		writeJSONError(w, fmt.Errorf("serve: response write: %w", ferr))
		return
	}
	// The write seam re-checks the deadline: a response that became
	// ready only after the request's deadline (a stalled write path, the
	// delay fault above) answers 504 instead of a late 200 the client
	// has already given up on.
	if cerr := r.Context().Err(); cerr != nil {
		writeJSONError(w, s.mapQueryError(cerr))
		return
	}
	w.Write(data)
}

// loadStore fetches the published store or reports 503: the daemon is
// up (ready to scrape, streaming solve progress) but has nothing to
// query yet.
func (s *Service) loadStore(w http.ResponseWriter) (*RankStore, bool) {
	st := s.store.Load()
	if st == nil {
		writeJSONError(w, &queryError{status: http.StatusServiceUnavailable,
			msg: "store not ready (still solving or loading)", retryAfter: "1"})
		return nil, false
	}
	return st, true
}

// intParam parses a required integer query parameter.
func intParam(r *http.Request, name string) (int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return 0, badRequest("missing required parameter %q", name)
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, badRequest("parameter %q: %v", name, err)
	}
	return n, nil
}

// kParam parses the optional k parameter (default 10), clamped to
// [0, MaxK].
func (s *Service) kParam(r *http.Request) (int, error) {
	v := r.URL.Query().Get("k")
	if v == "" {
		return 10, nil
	}
	k, err := strconv.Atoi(v)
	if err != nil {
		return 0, badRequest("parameter \"k\": %v", err)
	}
	if k < 0 {
		return 0, badRequest("parameter \"k\" must be >= 0")
	}
	if k > s.MaxK {
		k = s.MaxK
	}
	return k, nil
}

// checkWindow maps an out-of-range window index to a 404.
func checkWindow(st *RankStore, w int) error {
	if w < 0 || w >= st.NumWindows() {
		return notFound("window %d outside [0, %d)", w, st.NumWindows())
	}
	return nil
}

// canonicalKey builds the cache/coalesce key for a query: the store
// generation, the endpoint, and the normalized integer parameters —
// so "?window=03&k=+10" and "?k=10&window=3" coalesce, and entries
// from a replaced store are unreachable.
func canonicalKey(gen uint64, endpoint string, params ...int) string {
	b := make([]byte, 0, 48)
	b = append(b, 'g')
	b = strconv.AppendUint(b, gen, 10)
	b = append(b, '|')
	b = append(b, endpoint...)
	for _, p := range params {
		b = append(b, '|')
		b = strconv.AppendInt(b, int64(p), 10)
	}
	return string(b)
}

func (s *Service) handleTopK(w http.ResponseWriter, r *http.Request) {
	st, ok := s.loadStore(w)
	if !ok {
		return
	}
	win, err := intParam(r, "window")
	if err != nil {
		writeJSONError(w, err)
		return
	}
	k, err := s.kParam(r)
	if err != nil {
		writeJSONError(w, err)
		return
	}
	if err := checkWindow(st, win); err != nil {
		writeJSONError(w, err)
		return
	}
	key := canonicalKey(st.generation, "topk", win, k)
	s.serveQuery(w, r, key, func(context.Context) ([]byte, error) {
		ranks, err := st.TopK(win, k)
		if err != nil {
			return nil, err
		}
		return encodeTopK(win, st.spec.Start(win), st.spec.End(win), k, ranks), nil
	})
}

func (s *Service) handleTrajectory(w http.ResponseWriter, r *http.Request) {
	st, ok := s.loadStore(w)
	if !ok {
		return
	}
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeJSONError(w, badRequest("vertex id: %v", err))
		return
	}
	if id < 0 || id >= int64(st.NumVertices()) {
		writeJSONError(w, notFound("vertex %d outside [0, %d)", id, st.NumVertices()))
		return
	}
	v := int32(id)
	key := canonicalKey(st.generation, "traj", int(v))
	s.serveQuery(w, r, key, func(context.Context) ([]byte, error) {
		ranks, err := st.Trajectory(v)
		if err != nil {
			return nil, err
		}
		return encodeTrajectory(v, st.Spec(), ranks), nil
	})
}

func (s *Service) handleMovers(w http.ResponseWriter, r *http.Request) {
	st, ok := s.loadStore(w)
	if !ok {
		return
	}
	from, err := intParam(r, "from")
	if err != nil {
		writeJSONError(w, err)
		return
	}
	to, err := intParam(r, "to")
	if err != nil {
		writeJSONError(w, err)
		return
	}
	k, err := s.kParam(r)
	if err != nil {
		writeJSONError(w, err)
		return
	}
	if err := checkWindow(st, from); err != nil {
		writeJSONError(w, err)
		return
	}
	if err := checkWindow(st, to); err != nil {
		writeJSONError(w, err)
		return
	}
	key := canonicalKey(st.generation, "movers", from, to, k)
	s.serveQuery(w, r, key, func(context.Context) ([]byte, error) {
		movers, err := st.Movers(from, to, k)
		if err != nil {
			return nil, err
		}
		return encodeMovers(from, to, k, movers), nil
	})
}

// windowsResponse is the /v1/windows JSON document: the spec, the
// per-window status rows, and the serving-layer counters. It is not
// cached — the cache stats it carries change with every request.
type windowsResponse struct {
	Spec        specJSON     `json:"spec"`
	NumVertices int32        `json:"num_vertices"`
	Generation  uint64       `json:"generation"`
	Degraded    string       `json:"degraded,omitempty"`
	Windows     []WindowInfo `json:"windows"`
	Cache       CacheStats   `json:"cache"`
}

// specJSON renders events.WindowSpec with stable lowercase field names.
type specJSON struct {
	T0    int64 `json:"t0"`
	Delta int64 `json:"delta"`
	Slide int64 `json:"slide"`
	Count int   `json:"count"`
}

func (s *Service) handleWindows(w http.ResponseWriter, r *http.Request) {
	st, ok := s.loadStore(w)
	if !ok {
		return
	}
	spec := st.Spec()
	doc := windowsResponse{
		Spec:        specJSON{T0: spec.T0, Delta: spec.Delta, Slide: spec.Slide, Count: spec.Count},
		NumVertices: st.NumVertices(),
		Generation:  st.generation,
		Windows:     st.WindowInfos(),
		Cache:       s.cache.Stats(),
	}
	if reason, degraded := s.Degraded(); degraded {
		doc.Degraded = reason
	}
	b, err := marshalBody(doc)
	if err != nil {
		writeJSONError(w, err)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json; charset=utf-8")
	if doc.Degraded != "" {
		h.Set("X-Stale", "true")
	}
	w.Write(b)
}

// marshalBody renders a response document as newline-terminated JSON.
// Only /v1/windows uses it; the cached query documents are appended by
// the encoders below.
func marshalBody(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// The /v1/topk, /v1/vertex/{id}/trajectory and /v1/movers documents
// are appended field by field with strconv, in encoding/json's layout
// (struct field order, no spaces, a trailing newline), so their bytes
// equal marshalBody's for the same answer.

// bodyPool holds the scratch buffers the query encoders append into.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// scratch takes a pooled buffer for one document; finish returns it.
func scratch() (*[]byte, []byte) {
	bp := bodyPool.Get().(*[]byte)
	return bp, (*bp)[:0]
}

// finish terminates the document b with a newline, returns the scratch
// buffer to the pool and hands back an exact-length copy. The cache
// keeps that copy, so no entry pins a scratch buffer's spare capacity.
func finish(bp *[]byte, b []byte) []byte {
	b = append(b, '\n')
	out := make([]byte, len(b))
	copy(out, b)
	*bp = b
	bodyPool.Put(bp)
	return out
}

// appendFloat appends f as encoding/json renders a float64: the
// shortest 'f' form, or the 'e' form outside [1e-6, 1e21) with a
// two-digit negative exponent cut to one (e-07 becomes e-7). f must be
// finite; the store's ranks and their differences always are.
func appendFloat(b []byte, f float64) []byte {
	if math.Float64bits(f) == 0 { // +0, most of a sparse trajectory
		return append(b, '0')
	}
	format := byte('f')
	if a := math.Abs(f); a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// encodeTopK renders the /v1/topk document:
// {"window":W,"start":S,"end":E,"k":K,"ranks":[{"vertex":V,"rank":R},...]}.
func encodeTopK(win int, start, end int64, k int, ranks []Ranked) []byte {
	bp, b := scratch()
	b = append(b, `{"window":`...)
	b = strconv.AppendInt(b, int64(win), 10)
	b = append(b, `,"start":`...)
	b = strconv.AppendInt(b, start, 10)
	b = append(b, `,"end":`...)
	b = strconv.AppendInt(b, end, 10)
	b = append(b, `,"k":`...)
	b = strconv.AppendInt(b, int64(k), 10)
	b = append(b, `,"ranks":[`...)
	for i, r := range ranks {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"vertex":`...)
		b = strconv.AppendInt(b, int64(r.Vertex), 10)
		b = append(b, `,"rank":`...)
		b = appendFloat(b, r.Rank)
		b = append(b, '}')
	}
	b = append(b, "]}"...)
	return finish(bp, b)
}

// encodeTrajectory renders the /v1/vertex/{id}/trajectory document, the
// vertex's rank in every window with the spec fields that map indices
// back to time:
// {"vertex":V,"windows":N,"t0":T,"delta":D,"slide":S,"ranks":[R,...]}.
func encodeTrajectory(v int32, spec events.WindowSpec, ranks []float64) []byte {
	bp, b := scratch()
	b = append(b, `{"vertex":`...)
	b = strconv.AppendInt(b, int64(v), 10)
	b = append(b, `,"windows":`...)
	b = strconv.AppendInt(b, int64(spec.Count), 10)
	b = append(b, `,"t0":`...)
	b = strconv.AppendInt(b, spec.T0, 10)
	b = append(b, `,"delta":`...)
	b = strconv.AppendInt(b, spec.Delta, 10)
	b = append(b, `,"slide":`...)
	b = strconv.AppendInt(b, spec.Slide, 10)
	b = append(b, `,"ranks":[`...)
	for i, r := range ranks {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFloat(b, r)
	}
	b = append(b, "]}"...)
	return finish(bp, b)
}

// encodeMovers renders the /v1/movers document:
// {"from":F,"to":T,"k":K,"movers":[{"vertex":V,"from_rank":A,"to_rank":B,"delta":D},...]}.
func encodeMovers(from, to, k int, movers []Mover) []byte {
	bp, b := scratch()
	b = append(b, `{"from":`...)
	b = strconv.AppendInt(b, int64(from), 10)
	b = append(b, `,"to":`...)
	b = strconv.AppendInt(b, int64(to), 10)
	b = append(b, `,"k":`...)
	b = strconv.AppendInt(b, int64(k), 10)
	b = append(b, `,"movers":[`...)
	for i, m := range movers {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"vertex":`...)
		b = strconv.AppendInt(b, int64(m.Vertex), 10)
		b = append(b, `,"from_rank":`...)
		b = appendFloat(b, m.From)
		b = append(b, `,"to_rank":`...)
		b = appendFloat(b, m.To)
		b = append(b, `,"delta":`...)
		b = appendFloat(b, m.Delta)
		b = append(b, '}')
	}
	b = append(b, "]}"...)
	return finish(bp, b)
}

// Mount registers the /v1 query endpoints on mux — typically the obs
// mux, next to /metrics, /status, and /events, so one daemon address
// serves scrapes, live progress, and rank queries. When s.Guard is
// set, every handler is wrapped in its middleware stack.
func (s *Service) Mount(mux *http.ServeMux) {
	wrap := func(h http.HandlerFunc) http.Handler {
		if s.Guard != nil {
			return s.Guard.Wrap(h)
		}
		return h
	}
	mux.Handle("GET /v1/topk", wrap(s.handleTopK))
	mux.Handle("GET /v1/vertex/{id}/trajectory", wrap(s.handleTrajectory))
	mux.Handle("GET /v1/movers", wrap(s.handleMovers))
	mux.Handle("GET /v1/windows", wrap(s.handleWindows))
}
