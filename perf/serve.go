package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"pmpr/internal/results"
	"pmpr/internal/serve"
)

const (
	// latencyLimitMs is the latency an answer must meet to count toward
	// goodput_rps.
	latencyLimitMs = 5
	// verifyEvery: every verifyEvery-th response of a step is compared
	// with a direct RankStore call (every response is parsed as JSON).
	verifyEvery = 64
	// maxReplays caps the miss keys replayed per endpoint against the
	// RankStore when timing serve.store.*.
	maxReplays = 2000
	// spanHeader carries a traced request's ids to the server as
	// "<request id>.<parent span id>".
	spanHeader = "X-Perf-Span"
)

// newService wires the Service and Guard the way pmserve does at its
// flag defaults: 5 s request timeout, 256 in-flight computations, a
// 100 ms queue wait, default cache size.
func newService() *serve.Service {
	svc := serve.NewService(0)
	svc.Guard = serve.NewGuard(serve.GuardConfig{
		Timeout:     5 * time.Second,
		MaxInFlight: 256,
		QueueWait:   100 * time.Millisecond,
	})
	return svc
}

// loadStore is pmserve -load's path to ready: decode the .pmrs, build
// the RankStore, publish it. It returns the time that took.
func loadStore(svc *serve.Service, path string, tr *tracer) (float64, error) {
	start := time.Now()
	root := tr.begin("serve.ready", 0)
	sp := tr.begin("results.decode", root.s.ID)
	s, err := readRanks(path)
	if err != nil {
		return 0, err
	}
	sp.end()
	sp = tr.begin("serve.store_build", root.s.ID)
	st, err := serve.NewStore(s)
	if err != nil {
		return 0, err
	}
	sp.end()
	sp = tr.begin("serve.publish", root.s.ID)
	if err := svc.TryPublish(st); err != nil {
		return 0, err
	}
	sp.end()
	root.end()
	return time.Since(start).Seconds(), nil
}

// runReady measures one time-to-ready in a fresh process.
func runReady(j job) (childResult, error) {
	secs, err := loadStore(newService(), j.Ranks, nil)
	return childResult{SetupSeconds: secs}, err
}

// stepResult is one step of the serve child's traffic, measured once
// per round.
type stepResult struct {
	stepSpec
	Rounds    []stepStats `json:"rounds"`
	Evictions uint64      `json:"evictions"`
	misses    []query
}

// session is the serve child: one Service behind httptest, the client's
// lanes (one connection per CPU), and the .pmrs bytes churn republishes
// from.
type session struct {
	svc   *serve.Service
	lanes []lane
	pmrs  []byte // nil without churn
	// tr is the tracer of the step in progress, nil while untraced.
	tr atomic.Pointer[tracer]
}

// lane is one client connection with its own query stream; one sender
// goroutine uses it at a time.
type lane struct {
	conn   httpConn
	gen    *queryGen
	path   []byte
	misses []query // the cache misses of a traced step
}

// runServe loads the store, then offers the workload's traffic: a
// closed-loop warm-up, then Rounds passes over the steps, so
// each step's samples are spread across the run. Under churn a freshly
// decoded copy of the store is published before every step, so every
// step starts with nothing cached. Every request is an operation, and it
// fails on a transport error, a status other than 200, a body that is
// not JSON, a verified body that disagrees with the RankStore, or if it
// was never sent.
func runServe(ctx context.Context, j job) (childResult, error) {
	var tr *tracer
	if j.TraceOut != "" {
		tr = newTracer()
	}
	svc := newService()
	setup, err := loadStore(svc, j.Ranks, tr)
	if err != nil {
		return childResult{}, err
	}
	s := &session{svc: svc}
	if j.Churn {
		if s.pmrs, err = os.ReadFile(j.Ranks); err != nil {
			return childResult{}, err
		}
	}
	gen, err := newQueryGen(svc.Store(), j.Churn, j.Seed)
	if err != nil {
		return childResult{}, err
	}
	mux := http.NewServeMux()
	svc.Mount(mux)
	ts := httptest.NewServer(s.handler(mux))
	defer ts.Close()
	s.lanes = make([]lane, runtime.GOMAXPROCS(0))
	for i := range s.lanes {
		s.lanes[i].conn.addr = ts.Listener.Addr().String()
		s.lanes[i].gen = gen.fork(j.Seed*int64(len(s.lanes)) + int64(i))
		defer s.lanes[i].conn.close()
	}

	// A pause of an eighth of a step separates steps, so the work a step
	// or a republish left behind has settled before the next one starts.
	pause := j.Step / 8
	res := childResult{SetupSeconds: setup, Steps: make([]stepResult, len(j.Steps))}
	// The warm-up runs closed loop: it fills the zipf mix's cache and
	// brings every code path up to speed faster than the nominal rate.
	warm, _, _ := s.step(ctx, stepSpec{}, j.Warmup, nil)
	res.Warmup = &warm
	res.Attempted, res.Failed = warm.Offered, warm.Failed
	for round := 0; round < j.Rounds; round++ {
		for i, spec := range j.Steps {
			if s.pmrs != nil {
				t0 := time.Now()
				err := s.republish()
				res.Republish = append(res.Republish, time.Since(t0).Seconds())
				res.Attempted++
				if err != nil {
					fmt.Fprintf(os.Stderr, "perf: republish: %v\n", err)
					res.Failed++
				}
			}
			// Every step starts from a fresh collection, so the steps see
			// the same number of collections at the same points.
			runtime.GC()
			time.Sleep(pause)
			var stepTr *tracer
			if spec.Traced {
				stepTr = tr
			}
			st, evicted, misses := s.step(ctx, spec, j.Step, stepTr)
			r := &res.Steps[i]
			r.stepSpec = spec
			r.Rounds = append(r.Rounds, st)
			r.Evictions += evicted
			r.misses = append(r.misses, misses...)
			res.Attempted += st.Offered
			res.Failed += st.Failed
		}
	}
	if res.RSSMB, err = maxRSSMB(); err != nil {
		return childResult{}, err
	}
	res.Shed, res.Timeouts = svc.Guard.Shed.Value(), svc.Guard.Timeouts.Value()
	if tr == nil {
		return res, nil
	}
	var traced stepResult
	for _, st := range res.Steps {
		if st.Traced {
			traced = st
		}
	}
	res.Layers = serveLayers(tr, traced, svc.Store())
	return res, tr.writeFile(j.TraceOut)
}

// step runs one step, open or closed loop as spec says, for dur,
// tracing its requests into tr when that is non-nil. It returns the step's statistics, the cache
// evictions during it, and (when traced) the queries the cache missed.
func (s *session) step(ctx context.Context, spec stepSpec, dur time.Duration, tr *tracer) (stepStats, uint64, []query) {
	for i := range s.lanes {
		s.lanes[i].misses = s.lanes[i].misses[:0]
	}
	before := s.svc.CacheStats()
	s.tr.Store(tr)
	defer s.tr.Store(nil)
	send := func(_ context.Context, ln, i int, due time.Time) (time.Time, outcome, bool) {
		l := &s.lanes[ln]
		q := l.gen.next()
		l.path = q.appendPath(l.path[:0])
		var reqID, rtID uint64
		header := ""
		if tr != nil {
			reqID, rtID = tr.newID(), tr.newID()
			header = spanHeader + ": " + strconv.FormatUint(reqID, 10) + "." + strconv.FormatUint(rtID, 10)
			tr.add(span{Name: "gen.queue", Parent: reqID, Req: reqID, Start: due, End: time.Now()})
		}
		sent := time.Now()
		status, cache, body, err := l.conn.get(l.path, header)
		done := time.Now()
		if tr != nil {
			tr.add(span{ID: rtID, Parent: reqID, Req: reqID, Name: "http.roundtrip", Start: sent, End: done})
			tr.add(span{ID: reqID, Req: reqID, Name: "client.request", Attr: q.EP.String() + "/" + cache,
				Lane: ln + 1, Start: due, End: done})
			if cache == "miss" {
				l.misses = append(l.misses, q)
			}
		}
		if err != nil || status != http.StatusOK {
			return done, refused, false
		}
		if !json.Valid(body) {
			fmt.Fprintf(os.Stderr, "perf: %s: the body is not JSON\n", l.path)
			return done, wrong, false
		}
		if i%verifyEvery == 0 {
			if err := verify(s.svc.Store(), q, body); err != nil {
				fmt.Fprintf(os.Stderr, "perf: %s: %v\n", l.path, err)
				return done, wrong, false
			}
		}
		return done, answered, cache == "hit"
	}
	var st stepStats
	if spec.Rate > 0 {
		n := int(spec.Rate*dur.Seconds() + 0.5)
		if n < 1 {
			n = 1
		}
		st = runStep(ctx, spec.Rate, n, len(s.lanes), send)
	} else {
		lanes := len(s.lanes)
		if spec.Lanes > 0 && spec.Lanes < lanes {
			lanes = spec.Lanes
		}
		st = runClosed(ctx, dur, lanes, send)
	}
	var missed []query
	for _, l := range s.lanes {
		missed = append(missed, l.misses...)
	}
	return st, s.svc.CacheStats().Evicts - before.Evicts, missed
}

// handler records a serve.handler span around next while a traced step
// runs; otherwise it adds one atomic load per request.
func (s *session) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := s.tr.Load()
		if tr == nil {
			next.ServeHTTP(w, r)
			return
		}
		reqID, parent := parseSpanHeader(r.Header.Get(spanHeader))
		start := time.Now()
		next.ServeHTTP(w, r)
		tr.add(span{Parent: parent, Req: reqID, Name: "serve.handler",
			Attr: endpointOf(r.URL.Path) + "/" + w.Header().Get("X-Cache"), Start: start, End: time.Now()})
	})
}

func parseSpanHeader(h string) (reqID, parent uint64) {
	a, b, _ := strings.Cut(h, ".")
	reqID, _ = strconv.ParseUint(a, 10, 64)
	parent, _ = strconv.ParseUint(b, 10, 64)
	return reqID, parent
}

func endpointOf(path string) string {
	switch {
	case strings.HasPrefix(path, "/v1/topk"):
		return epTopK.String()
	case strings.HasSuffix(path, "/trajectory"):
		return epTrajectory.String()
	default:
		return epMovers.String()
	}
}

// republish decodes the same .pmrs bytes again and publishes the result
// as a new generation, so every cached response goes stale.
func (s *session) republish() error {
	dec, err := results.Read(bytes.NewReader(s.pmrs))
	if err != nil {
		return err
	}
	st, err := serve.NewStore(dec)
	if err != nil {
		return err
	}
	return s.svc.TryPublish(st)
}

// verify decodes a response and compares it with the same query asked
// of the RankStore directly.
func verify(st *serve.RankStore, q query, body []byte) error {
	switch q.EP {
	case epTopK:
		var got struct {
			Window, K int
			Ranks     []serve.Ranked
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		want, err := st.TopK(q.A, q.K)
		if err != nil {
			return err
		}
		if got.Window != q.A || got.K != q.K || len(got.Ranks) != len(want) {
			return fmt.Errorf("topk answer shape differs from the store's")
		}
		for i := range want {
			if got.Ranks[i].Vertex != want[i].Vertex || !sameFloat(got.Ranks[i].Rank, want[i].Rank) {
				return fmt.Errorf("topk entry %d differs from the store's", i)
			}
		}
	case epTrajectory:
		var got struct{ Ranks []float64 }
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		want, err := st.Trajectory(int32(q.A))
		if err != nil {
			return err
		}
		if len(got.Ranks) != len(want) {
			return fmt.Errorf("trajectory length differs from the store's")
		}
		for i := range want {
			if !sameFloat(got.Ranks[i], want[i]) {
				return fmt.Errorf("trajectory window %d differs from the store's", i)
			}
		}
	default:
		var got struct {
			From, To, K int
			Movers      []serve.Mover
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		want, err := st.Movers(q.A, q.B, q.K)
		if err != nil {
			return err
		}
		if got.From != q.A || got.To != q.B || len(got.Movers) != len(want) {
			return fmt.Errorf("movers answer shape differs from the store's")
		}
		for i, w := range want {
			g := got.Movers[i]
			if g.Vertex != w.Vertex || !sameFloat(g.From, w.From) || !sameFloat(g.To, w.To) || !sameFloat(g.Delta, w.Delta) {
				return fmt.Errorf("movers entry %d differs from the store's", i)
			}
		}
	}
	return nil
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// replaySink keeps the replayed store calls from being optimized away.
var replaySink int

// serveLayers derives the serve-side per-layer metrics from the spans
// of the setup and the traced step.
func serveLayers(tr *tracer, traced stepResult, st *serve.RankStore) map[string]float64 {
	spans := tr.spans()
	self := selfTimes(spans)
	m := make(map[string]float64)
	handler := make(map[string][]float64)
	var transport []float64
	hits, answered := 0, 0
	for _, sp := range spans {
		switch sp.Name {
		case "results.decode", "serve.store_build", "serve.publish":
			m[sp.Name+"_s"] = self[sp.ID].Seconds()
		case "serve.handler":
			handler[sp.Attr] = append(handler[sp.Attr], micros(sp.End.Sub(sp.Start)))
			answered++
			if strings.HasSuffix(sp.Attr, "/hit") {
				hits++
			}
		case "http.roundtrip":
			transport = append(transport, micros(self[sp.ID]))
		}
	}
	for _, ep := range endpointNames {
		for _, src := range []string{"hit", "miss"} {
			d := summarize(handler[ep+"/"+src])
			key := "serve.handler." + ep + "." + src
			m[key+".p50_us"], m[key+".p99_us"] = d.P50, d.P99
		}
	}
	m["http.transport_p50_us"] = summarize(transport).P50
	if answered > 0 {
		m["serve.cache_hit_ratio"] = float64(hits) / float64(answered)
	}
	m["serve.cache_evictions"] = float64(traced.Evictions)

	replays := make(map[endpoint][]float64)
	for _, q := range traced.misses {
		if len(replays[q.EP]) >= maxReplays {
			continue
		}
		t0 := time.Now()
		var n int
		var err error
		switch q.EP {
		case epTopK:
			var r []serve.Ranked
			r, err = st.TopK(q.A, q.K)
			n = len(r)
		case epTrajectory:
			var r []float64
			r, err = st.Trajectory(int32(q.A))
			n = len(r)
		default:
			var r []serve.Mover
			r, err = st.Movers(q.A, q.B, q.K)
			n = len(r)
		}
		if err == nil {
			replays[q.EP] = append(replays[q.EP], micros(time.Since(t0)))
			replaySink += n
		}
	}
	for i := range endpointNames {
		ep := endpoint(i)
		m["serve.store."+ep.String()+"_us"] = median(replays[ep])
	}
	return m
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
