package obs

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// NewMux returns the debug HTTP handler tree:
//
//	/metrics        — the registry snapshot as indented JSON
//	/debug/vars     — expvar (cmdline, memstats, and the published registry)
//	/debug/pprof/*  — the standard net/http/pprof endpoints
//
// reg may be nil; /metrics then serves an empty object.
func NewMux(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if err := reg.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// DebugServer is a running debug HTTP endpoint started by Serve.
type DebugServer struct {
	srv *http.Server
	ln  net.Listener
}

// Serve publishes reg under the "roarray" expvar name and starts the debug
// handler tree on addr (use ":0" or "127.0.0.1:0" to pick a free port, then
// read Addr). The server runs until Close.
func Serve(addr string, reg *Registry) (*DebugServer, error) {
	reg.PublishExpvar("roarray")
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: NewMux(reg)}
	go srv.Serve(ln) //nolint:errcheck // Serve always returns ErrServerClosed after Close
	return &DebugServer{srv: srv, ln: ln}, nil
}

// Addr returns the bound listen address (host:port).
func (d *DebugServer) Addr() string { return d.ln.Addr().String() }

// Close stops the server immediately: the listener and every open
// connection are closed, cutting off in-flight scrapes mid-response.
func (d *DebugServer) Close() error { return d.srv.Close() }
