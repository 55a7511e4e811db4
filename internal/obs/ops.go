package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
)

// Ops HTTP surface: every Helios binary can expose an operational
// listener (the -ops-addr flag) serving
//
//	GET /metrics        registry snapshot, text (default) or ?format=json
//	GET /traces         slow-request capture + recent ring, JSON
//	GET /slo            rolling SLO burn rates, JSON
//	GET /healthz        liveness probe
//	/debug/pprof/...    the standard Go profiler endpoints
//
// The handlers only read registry/tracer state; they never touch worker
// internals, so an ops scrape cannot contend with the serving hot path
// beyond the atomic loads of a snapshot.

// Route mounts an extra endpoint on the ops mux — how a binary with
// host-specific surfaces (the coordinator's GET /cluster) extends the
// shared listener without the obs package knowing about them.
type Route struct {
	// Pattern is an http.ServeMux pattern (e.g. "GET /cluster").
	Pattern string
	Handler http.Handler
}

// Handler returns the ops mux over reg and tracer. Either may be nil, in
// which case the corresponding endpoint serves an empty document. extra
// routes are mounted after the standard ones.
func Handler(reg *Registry, tracer *Tracer, extra ...Route) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		var snap Snapshot
		if reg != nil {
			snap = reg.Snapshot()
		}
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			//lint:allow droppederror reason=HTTP response write: the client hanging up mid-body is not actionable
			_ = json.NewEncoder(w).Encode(snap)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		//lint:allow droppederror reason=HTTP response write: the client hanging up mid-body is not actionable
		_ = snap.WriteText(w)
	})
	mux.HandleFunc("GET /traces", func(w http.ResponseWriter, r *http.Request) {
		out := struct {
			Slowest []Trace `json:"slowest"`
			Recent  []Trace `json:"recent"`
		}{Slowest: []Trace{}, Recent: []Trace{}}
		if tracer != nil {
			out.Slowest = tracer.Slowest()
			out.Recent = tracer.Recent()
			if n := r.URL.Query().Get("n"); n != "" {
				if lim, err := strconv.Atoi(n); err == nil && lim >= 0 {
					if len(out.Slowest) > lim {
						out.Slowest = out.Slowest[:lim]
					}
					if len(out.Recent) > lim {
						out.Recent = out.Recent[len(out.Recent)-lim:]
					}
				}
			}
		}
		w.Header().Set("Content-Type", "application/json")
		//lint:allow droppederror reason=HTTP response write: the client hanging up mid-body is not actionable
		_ = json.NewEncoder(w).Encode(out)
	})
	mux.HandleFunc("GET /slo", func(w http.ResponseWriter, r *http.Request) {
		out := struct {
			SLOs map[string]SLOSnapshot `json:"slos"`
		}{SLOs: map[string]SLOSnapshot{}}
		if reg != nil {
			out.SLOs = reg.Snapshot().SLOs
		}
		w.Header().Set("Content-Type", "application/json")
		//lint:allow droppederror reason=HTTP response write: the client hanging up mid-body is not actionable
		_ = json.NewEncoder(w).Encode(out)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		//lint:allow droppederror reason=HTTP response write: the client hanging up mid-body is not actionable
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for _, rt := range extra {
		if rt.Handler != nil {
			mux.Handle(rt.Pattern, rt.Handler)
		}
	}
	return mux
}

// Server is a running ops listener.
type Server struct {
	http *http.Server
	ln   net.Listener
}

// Serve binds addr (e.g. "127.0.0.1:0") and serves the ops endpoints in
// the background until Close.
func Serve(addr string, reg *Registry, tracer *Tracer, extra ...Route) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{http: &http.Server{Handler: Handler(reg, tracer, extra...)}, ln: ln}
	// http.Server.Serve returns when Close tears the listener down; the
	// goroutine cannot leak past Close.
	go func() {
		//lint:allow droppederror reason=Serve always returns ErrServerClosed after Close; nothing to act on
		_ = s.http.Serve(ln)
	}()
	return s, nil
}

// ServeDefault is the cmd/ binaries' -ops-addr hook: it binds the
// process-wide registry and tracer on addr. An empty addr returns a nil
// server (whose Close is a no-op), so a binary wires the flag in two
// lines without branching on whether ops were requested.
func ServeDefault(addr string, extra ...Route) (*Server, error) {
	if addr == "" {
		return nil, nil
	}
	return Serve(addr, Default(), DefaultTracer(), extra...)
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and in-flight handlers. Safe on a nil server.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.http.Close()
}
