// Package httpd is every HTTP surface of the serving binaries: the
// debug server and its probes, the /debug/ reports of the scalability
// advisor and the quality sampler, and the job service's API. It is the
// only package below cmd/ that imports net/http or the pprof packages,
// so a process that runs the algorithm without serving HTTP does not
// link the HTTP stack (the guard is TestHTTPStaysInServers in the
// module root).
package httpd

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"time"

	"borgmoea/internal/obs"
)

// writeJSONValue best-effort encodes v; a failed write mid-body leaves
// the client with a truncated response, which is all HTTP offers.
func writeJSONValue(w io.Writer, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck
}

// DebugServer is a live introspection endpoint for a running master or
// worker daemon:
//
//	/healthz        — liveness probe ("ok": the process serves HTTP)
//	/readyz         — readiness probe; reflects the WithReadiness
//	                check, so a draining job server can fail it while
//	                staying alive
//	/debug/vars     — the attached Registry's metrics as JSON
//	                (expvar-style, the document -metrics-out writes),
//	                plus runtime goroutine/heap figures
//	/debug/pprof/   — the standard Go profiling handlers: CPU, heap,
//	                goroutine and execution-trace profiles on demand,
//	                which go tool pprof reads directly
//
// It binds its own listener and mux, so importing this package never
// touches http.DefaultServeMux.
type DebugServer struct {
	ln    net.Listener
	srv   *http.Server
	ready func() error
}

// DebugOption extends a debug server at construction time.
type DebugOption func(s *DebugServer, mux *http.ServeMux)

// WithHandler mounts an extra handler on the debug mux — how a binary
// serves /debug/scaling (AdvisorHandler) or /debug/quality
// (QualityHandler) next to /debug/vars.
func WithHandler(pattern string, h http.Handler) DebugOption {
	return func(_ *DebugServer, mux *http.ServeMux) { mux.Handle(pattern, h) }
}

// WithReadiness installs the /readyz check: nil means ready (200), an
// error is served as 503 with the reason. Without this option the
// server is always ready — liveness and readiness coincide, the
// pre-job-server behavior.
func WithReadiness(check func() error) DebugOption {
	return func(s *DebugServer, _ *http.ServeMux) { s.ready = check }
}

// ServeDebug starts a debug server on addr (e.g. "localhost:6060", or
// ":0" to pick a free port — see Addr) serving the routes listed on
// DebugServer, plus whatever opts mount. The registry may be nil, in
// which case /debug/vars reports only runtime figures.
func ServeDebug(addr string, reg *obs.Registry, opts ...DebugOption) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("httpd: debug listen: %w", err)
	}
	s := &DebugServer{ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.ready != nil {
			if err := s.ready(); err != nil {
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprintln(w, err)
				return
			}
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		snap := reg.Snapshot()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		snap["runtime.goroutines"] = runtime.NumGoroutine()
		snap["runtime.heap_alloc_bytes"] = ms.HeapAlloc
		snap["runtime.num_gc"] = ms.NumGC
		writeJSONValue(w, snap)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for _, opt := range opts {
		opt(s, mux)
	}

	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go s.srv.Serve(ln) //nolint:errcheck // always returns on Close
	return s, nil
}

// Addr returns the bound address (useful with ":0").
func (s *DebugServer) Addr() string { return s.ln.Addr().String() }

// Close stops the server and releases its port.
func (s *DebugServer) Close() error { return s.srv.Close() }

// Shutdown gracefully drains the server: the listener closes at once
// (readiness probes start failing at the LB), in-flight requests run
// to completion or until ctx expires.
func (s *DebugServer) Shutdown(ctx context.Context) error { return s.srv.Shutdown(ctx) }
