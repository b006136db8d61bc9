package obs

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// NewMux builds the observability HTTP handler:
//
//	/metrics       Prometheus text exposition of reg
//	/debug/pprof/  the standard net/http/pprof handlers
//
// reg may be nil, in which case /metrics serves an empty exposition.
// Live endpoints (/status, /events) are mounted separately with
// HandleLive, so scrape-only callers pay nothing for them.
func NewMux(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if reg != nil {
			reg.WriteProm(w)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running observability endpoint.
type Server struct {
	srv *http.Server
	ln  net.Listener
	// serveErr receives the background Serve's return value exactly
	// once; Shutdown/Close surface it instead of dropping it.
	serveErr chan error

	once sync.Once
	err  error
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// stop tears the server down, via graceful() first, and folds in the
// background Serve error (http.ErrServerClosed is the clean-exit
// sentinel, not a failure). Safe to call multiple times; later calls
// return the first result.
func (s *Server) stop(graceful func() error) error {
	s.once.Do(func() {
		err := graceful()
		// Serve is guaranteed to have returned once Shutdown/Close has
		// closed the listener, so this receive does not block for long.
		if serr := <-s.serveErr; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		s.err = err
	})
	return s.err
}

// Shutdown stops the server gracefully: the listener closes
// immediately, in-flight requests (a /metrics scrape, an /events
// stream) get until ctx's deadline to finish, and any error from the
// background Serve goroutine is surfaced. Connections still open at
// the deadline — an /events SSE stream never ends on its own — are
// force-closed rather than reported as an error, so a watcher being
// attached does not block or fail process exit. Callers own the
// deadline — pmrank/pmbench use a short timeout so SIGINT still exits
// promptly.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.stop(func() error {
		err := s.srv.Shutdown(ctx)
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			return s.srv.Close()
		}
		return err
	})
}

// Close shuts the server down immediately, aborting in-flight
// requests. Prefer Shutdown, which lets a scrape in progress finish.
func (s *Server) Close() error {
	return s.stop(s.srv.Close)
}

// ServerLimits are the HTTP server's protection knobs: without them a
// single slow (or malicious) client holds a connection — and its
// goroutine, buffers, and possibly a handler — forever. The zero value
// of any field inherits that field's default from DefaultServerLimits.
type ServerLimits struct {
	// ReadHeaderTimeout bounds reading one request's header block — the
	// slowloris guard. A client that trickles header bytes is cut off.
	ReadHeaderTimeout time.Duration
	// ReadTimeout bounds reading an entire request (header + body).
	ReadTimeout time.Duration
	// WriteTimeout bounds writing a response. Streaming handlers that
	// legitimately outlive it (the /events SSE stream) clear their
	// connection's deadline via http.ResponseController — see
	// EventsHandler — so the limit protects every ordinary handler
	// without a server-wide carve-out.
	WriteTimeout time.Duration
	// IdleTimeout bounds how long a keep-alive connection may sit
	// between requests.
	IdleTimeout time.Duration
	// MaxHeaderBytes caps request header size.
	MaxHeaderBytes int
}

// DefaultServerLimits returns the limits Serve/ServeHandler apply:
// tight on headers (5s, 1MB), generous on bodies and responses (30s /
// 60s — a 30s pprof CPU profile must fit), and 2m keep-alive idle.
func DefaultServerLimits() ServerLimits {
	return ServerLimits{
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 20,
	}
}

// withDefaults fills zero fields from DefaultServerLimits.
func (l ServerLimits) withDefaults() ServerLimits {
	d := DefaultServerLimits()
	if l.ReadHeaderTimeout <= 0 {
		l.ReadHeaderTimeout = d.ReadHeaderTimeout
	}
	if l.ReadTimeout <= 0 {
		l.ReadTimeout = d.ReadTimeout
	}
	if l.WriteTimeout <= 0 {
		l.WriteTimeout = d.WriteTimeout
	}
	if l.IdleTimeout <= 0 {
		l.IdleTimeout = d.IdleTimeout
	}
	if l.MaxHeaderBytes <= 0 {
		l.MaxHeaderBytes = d.MaxHeaderBytes
	}
	return l
}

// ServeHandler binds addr and serves an arbitrary handler — typically
// NewMux(reg) with live endpoints mounted via HandleLive — in a
// background goroutine, with DefaultServerLimits applied. The caller
// owns the returned server and should Shutdown (or Close) it.
func ServeHandler(addr string, h http.Handler) (*Server, error) {
	return ServeHandlerLimits(addr, h, DefaultServerLimits())
}

// ServeHandlerLimits is ServeHandler with explicit protection limits
// (zero fields inherit the defaults).
func ServeHandlerLimits(addr string, h http.Handler, limits ServerLimits) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	limits = limits.withDefaults()
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: limits.ReadHeaderTimeout,
		ReadTimeout:       limits.ReadTimeout,
		WriteTimeout:      limits.WriteTimeout,
		IdleTimeout:       limits.IdleTimeout,
		MaxHeaderBytes:    limits.MaxHeaderBytes,
	}
	s := &Server{srv: srv, ln: ln, serveErr: make(chan error, 1)}
	go func() { s.serveErr <- srv.Serve(ln) }()
	return s, nil
}
