// This file is the serving path's robustness layer: a composable
// middleware stack mirroring the solve pipeline's failure ladder
// (retry → degrade → quarantine) with the serving equivalents
// (shed → degrade-to-stale → drain). The Guard owns admission control
// (a bounded compute limiter with a short wait queue plus a per-client
// token bucket), per-request deadlines, panic containment, and the
// drain gate; the Service consults it on the compute path so cache
// hits stay on the unguarded fast path and overload only ever sheds
// work that would actually cost something.

package serve

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pmpr/internal/obs"
)

// PanicError is the structured form of a recovered serving-layer
// panic: the value a handler or a coalesced fill panicked with,
// converted into an error so it can be rendered as a 500, counted,
// and never allowed to kill the daemon.
type PanicError struct {
	// Op names where the panic was caught ("handler", "coalesced fill",
	// "publish").
	Op string
	// Value is the recovered panic value.
	Value any
}

// Error renders the contained panic.
func (e *PanicError) Error() string {
	return fmt.Sprintf("serve: recovered panic in %s: %v", e.Op, e.Value)
}

// GuardConfig tunes the serving-path robustness layer. The zero value
// disables every mechanism (no deadline, no admission control, no rate
// limit) — each field opts in independently.
type GuardConfig struct {
	// Timeout is the per-request deadline applied to the request
	// context; a query that cannot complete in time answers 504.
	// 0 disables the deadline.
	Timeout time.Duration
	// MaxInFlight bounds concurrently admitted compute work (cache
	// misses); excess requests wait in the queue or are shed with 503.
	// 0 disables admission control.
	MaxInFlight int
	// MaxQueue bounds how many requests may wait for a compute slot
	// beyond MaxInFlight; further arrivals are shed immediately.
	// 0 defaults to MaxInFlight.
	MaxQueue int
	// QueueWait bounds how long a queued request waits for a slot
	// before being shed. 0 defaults to 100ms.
	QueueWait time.Duration
	// RatePerSec is the per-client token refill rate; each client (by
	// remote host) may burst up to RateBurst requests and sustain
	// RatePerSec. Excess answers 429. 0 disables rate limiting.
	RatePerSec float64
	// RateBurst is the per-client bucket capacity; 0 defaults to
	// max(1, ceil(RatePerSec)).
	RateBurst int
	// RetryAfter is the hint carried by shed (503) and rate-limited
	// (429) responses. 0 defaults to 1s.
	RetryAfter time.Duration
}

const (
	defaultQueueWait  = 100 * time.Millisecond
	defaultRetryAfter = time.Second
	// maxRateClients bounds the rate-limiter bucket map; when full,
	// buckets idle long enough to have refilled completely are pruned.
	maxRateClients = 16384
)

// Guard is the serving path's admission, deadline, and panic-
// containment layer. Create one with NewGuard, attach it to a Service
// (Service.Guard) before Mount, and wrap any additional handlers with
// Wrap. All methods are safe for concurrent use.
type Guard struct {
	cfg GuardConfig
	sem chan struct{} // compute slots; nil when admission is disabled

	inFlight atomic.Int64
	queued   atomic.Int64
	draining atomic.Bool

	// Shed counts requests rejected by admission control or the drain
	// gate (the 503 + Retry-After responses). Timeouts counts requests
	// that missed their deadline (504). Panics counts recovered
	// handler/fill/publish panics (500). RateLimited counts per-client
	// token-bucket rejections (429).
	Shed        obs.Counter
	Timeouts    obs.Counter
	Panics      obs.Counter
	RateLimited obs.Counter

	mu      sync.Mutex
	buckets map[string]*bucket
	nowFn   func() time.Time // test seam; time.Now when nil
}

// bucket is one client's token bucket.
type bucket struct {
	tokens float64
	last   time.Time
}

// NewGuard builds a Guard from cfg, applying the documented defaults.
func NewGuard(cfg GuardConfig) *Guard {
	if cfg.MaxInFlight > 0 && cfg.MaxQueue <= 0 {
		cfg.MaxQueue = cfg.MaxInFlight
	}
	if cfg.QueueWait <= 0 {
		cfg.QueueWait = defaultQueueWait
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = defaultRetryAfter
	}
	if cfg.RatePerSec > 0 && cfg.RateBurst <= 0 {
		cfg.RateBurst = int(cfg.RatePerSec + 0.999)
		if cfg.RateBurst < 1 {
			cfg.RateBurst = 1
		}
	}
	g := &Guard{cfg: cfg, buckets: map[string]*bucket{}}
	if cfg.MaxInFlight > 0 {
		g.sem = make(chan struct{}, cfg.MaxInFlight)
	}
	return g
}

// InFlight returns the number of requests currently inside the guard
// (admitted or queued), the pmpr_serve_inflight gauge.
func (g *Guard) InFlight() int64 { return g.inFlight.Load() }

// Queued returns the number of requests waiting for a compute slot.
func (g *Guard) Queued() int64 { return g.queued.Load() }

// StartDrain flips the guard into draining: every subsequent request
// is shed with 503 + Retry-After while in-flight requests run to
// completion. Draining is one-way — a draining process is exiting.
func (g *Guard) StartDrain() { g.draining.Store(true) }

// Draining reports whether StartDrain has been called.
func (g *Guard) Draining() bool { return g.draining.Load() }

// RetryAfterSeconds renders the configured Retry-After hint in whole
// seconds (minimum 1), the unit the header uses.
func (g *Guard) RetryAfterSeconds() string {
	s := int(g.cfg.RetryAfter / time.Second)
	if s < 1 {
		s = 1
	}
	return strconv.Itoa(s)
}

// RegisterOn publishes the guard's counters and gauges on reg:
// pmpr_serve_shed_total, pmpr_serve_timeout_total,
// pmpr_serve_panics_total, pmpr_serve_rate_limited_total,
// pmpr_serve_inflight, and pmpr_serve_queue_depth.
func (g *Guard) RegisterOn(reg *obs.Registry) {
	reg.RegisterCounter("pmpr_serve_shed_total", "requests shed by admission control or drain", &g.Shed)
	reg.RegisterCounter("pmpr_serve_timeout_total", "requests that missed their deadline", &g.Timeouts)
	reg.RegisterCounter("pmpr_serve_panics_total", "recovered serving-layer panics", &g.Panics)
	reg.RegisterCounter("pmpr_serve_rate_limited_total", "requests rejected by the per-client rate limit", &g.RateLimited)
	reg.Gauge("pmpr_serve_inflight", "requests currently inside the guard", func() float64 {
		return float64(g.InFlight())
	})
	reg.Gauge("pmpr_serve_queue_depth", "requests waiting for a compute slot", func() float64 {
		return float64(g.Queued())
	})
}

// errShed is the 503 every shed path answers with; the Retry-After
// header is attached by writeJSONError from the queryError.
func (g *Guard) errShed(msg string) error {
	return &queryError{status: http.StatusServiceUnavailable, msg: msg, retryAfter: g.RetryAfterSeconds()}
}

// acquireCompute admits one unit of compute work (a cache miss),
// waiting in the bounded queue when all slots are busy. It returns a
// release function on admission and a shed/context error otherwise.
// With admission control disabled it admits everything.
func (g *Guard) acquireCompute(ctx context.Context) (release func(), err error) {
	if g == nil || g.sem == nil {
		return func() {}, nil
	}
	select {
	case g.sem <- struct{}{}:
		return g.release, nil
	default:
	}
	// All slots busy: join the wait queue if it has room.
	if g.queued.Add(1) > int64(g.cfg.MaxQueue) {
		g.queued.Add(-1)
		g.Shed.Inc()
		return nil, g.errShed("overloaded: compute queue full")
	}
	defer g.queued.Add(-1)
	timer := time.NewTimer(g.cfg.QueueWait)
	defer timer.Stop()
	select {
	case g.sem <- struct{}{}:
		return g.release, nil
	case <-timer.C:
		g.Shed.Inc()
		return nil, g.errShed("overloaded: no compute slot within queue wait")
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// release returns a compute slot.
func (g *Guard) release() { <-g.sem }

// now returns the guard's clock (a test seam).
func (g *Guard) now() time.Time {
	if g.nowFn != nil {
		return g.nowFn()
	}
	return time.Now()
}

// allow runs the per-client token bucket for remoteAddr and reports
// whether the request may proceed. Disabled (RatePerSec <= 0) allows
// everything.
func (g *Guard) allow(remoteAddr string) bool {
	if g.cfg.RatePerSec <= 0 {
		return true
	}
	host, _, err := net.SplitHostPort(remoteAddr)
	if err != nil {
		host = remoteAddr
	}
	now := g.now()
	burst := float64(g.cfg.RateBurst)
	g.mu.Lock()
	defer g.mu.Unlock()
	b := g.buckets[host]
	if b == nil {
		if len(g.buckets) >= maxRateClients {
			g.pruneLocked(now, burst)
		}
		b = &bucket{tokens: burst, last: now}
		g.buckets[host] = b
	} else {
		b.tokens += now.Sub(b.last).Seconds() * g.cfg.RatePerSec
		if b.tokens > burst {
			b.tokens = burst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}

// pruneLocked drops buckets idle long enough to have refilled
// completely — forgetting them loses no information, since a fresh
// bucket starts full. Called with g.mu held when the map is at
// capacity.
func (g *Guard) pruneLocked(now time.Time, burst float64) {
	idle := time.Duration(burst/g.cfg.RatePerSec*float64(time.Second)) + time.Second
	for host, b := range g.buckets {
		if now.Sub(b.last) >= idle {
			delete(g.buckets, host)
		}
	}
}

// guardWriter tracks whether the wrapped handler has written a header,
// so panic recovery knows whether a structured 500 can still be sent.
type guardWriter struct {
	http.ResponseWriter
	wrote bool
}

// WriteHeader marks the response as started.
func (w *guardWriter) WriteHeader(status int) {
	w.wrote = true
	w.ResponseWriter.WriteHeader(status)
}

// Write marks the response as started and forwards the bytes.
func (w *guardWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// Unwrap exposes the underlying writer to http.ResponseController.
func (w *guardWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// Wrap composes the guard's middleware around h, outermost first:
// panic recovery (a handler panic becomes a structured 500 and a
// counter bump, never a dead connection and never a dead daemon), the
// drain gate (503 + Retry-After once StartDrain has been called), the
// per-client rate limit (429 + Retry-After), and the per-request
// deadline (the handler's context expires after Timeout, surfacing as
// 504 from the query path). The compute limiter is not applied here —
// Service.answer acquires it only on cache misses, so hits stay on the
// unguarded fast path.
func (g *Guard) Wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		g.inFlight.Add(1)
		defer g.inFlight.Add(-1)
		gw := &guardWriter{ResponseWriter: w}
		defer func() {
			if v := recover(); v != nil {
				g.Panics.Inc()
				perr := &PanicError{Op: "handler", Value: v}
				if !gw.wrote {
					writeJSONError(gw, perr)
				}
			}
		}()
		if g.draining.Load() {
			g.Shed.Inc()
			writeJSONError(gw, g.errShed("draining: server is shutting down"))
			return
		}
		if !g.allow(r.RemoteAddr) {
			g.RateLimited.Inc()
			writeJSONError(gw, &queryError{
				status: http.StatusTooManyRequests, msg: "rate limit exceeded",
				retryAfter: g.RetryAfterSeconds(),
			})
			return
		}
		if g.cfg.Timeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), g.cfg.Timeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		h.ServeHTTP(gw, r)
	})
}
