// Package admin is the optional HTTP observability endpoint the serving
// CLIs expose with -admin: a stdlib-only server publishing the runtime's
// health, metrics, and traces for operators and scrapers.
//
// Routes:
//
//	/healthz       supervision state as JSON; 200 when healthy, 503 when
//	               any peer is quarantined (load balancers key off this)
//	/metrics       Prometheus text exposition 0.0.4: every counter, gauge
//	               and histogram of every registered metrics.Registry, then
//	               the process's garbage-collector series (teamnet_go_*)
//	/traces        recent traces as JSON span trees; ?n=K bounds the
//	               number of traces, ?id=<hex> selects one
//	/debug/pprof/  the standard net/http/pprof profiles
//
// Roles can also publish extra live JSON views (the master's /splitplan,
// for example) with JSONFunc before Listen.
//
// Metrics come in through one door: each component exports its one
// *metrics.Registry as Metrics(), and the role hands them all to Add. The
// server holds references, not copies: registries and the tracer are read
// live on every request, so a scrape always sees current values (and each
// histogram self-consistent — see metrics.WritePrometheus). All sources are
// optional — an empty server still serves /healthz
// (always ok) and an empty /metrics page, so the CLIs can wire whatever
// the role has.
package admin

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	rtmetrics "runtime/metrics"
	"strconv"
	"sync"
	"time"

	"github.com/teamnet/teamnet/internal/metrics"
	"github.com/teamnet/teamnet/internal/trace"
)

// Server is one admin endpoint. Configure its sources, then Listen.
// Methods are safe for concurrent use; sources may be added while serving.
type Server struct {
	mu       sync.Mutex
	healthFn func() (ok bool, detail any)
	regs     []*metrics.Registry
	tracerFn func() *trace.Tracer
	jsonFns  map[string]func() any
	srv      *http.Server
	ln       net.Listener
}

// New returns an unstarted admin server with no sources.
func New() *Server { return &Server{} }

// HealthFunc installs the /healthz source: ok decides the status code
// (200 vs 503) and detail is rendered as the response's "detail" field.
func (s *Server) HealthFunc(fn func() (ok bool, detail any)) {
	s.mu.Lock()
	s.healthFn = fn
	s.mu.Unlock()
}

// Add registers metric registries for /metrics.
func (s *Server) Add(regs ...*metrics.Registry) {
	s.mu.Lock()
	s.regs = append(s.regs, regs...)
	s.mu.Unlock()
}

// TracerFunc installs the /traces source. It is a func, not a value, so
// roles that install tracers late (or swap them) stay current.
func (s *Server) TracerFunc(fn func() *trace.Tracer) {
	s.mu.Lock()
	s.tracerFn = fn
	s.mu.Unlock()
}

// JSONFunc registers an extra route: every request to path renders fn()'s
// current result as indented JSON. fn is called per request, so the view is
// always live. Unlike the metric sources, routes are fixed when Listen
// builds the mux — call JSONFunc before Listen.
func (s *Server) JSONFunc(path string, fn func() any) {
	s.mu.Lock()
	if s.jsonFns == nil {
		s.jsonFns = map[string]func() any{}
	}
	s.jsonFns[path] = fn
	s.mu.Unlock()
}

// Listen binds addr (use "127.0.0.1:0" in tests) and serves in the
// background, returning the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("admin: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/traces", s.handleTraces)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.mu.Lock()
	for path, fn := range s.jsonFns {
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(fn())
		})
	}
	s.mu.Unlock()
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	s.mu.Lock()
	s.srv = srv
	s.ln = ln
	s.mu.Unlock()
	go srv.Serve(ln)
	return ln.Addr().String(), nil
}

// Close stops the server immediately, dropping in-flight requests.
func (s *Server) Close() error {
	s.mu.Lock()
	srv := s.srv
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}

// Shutdown stops the server gracefully: the listener closes at once (no new
// scrapes), in-flight requests run to completion until ctx expires, then
// the remainder is dropped. This is what the CLIs call on SIGINT so a final
// scrape mid-shutdown still gets its response and tests don't leak
// listeners.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	srv := s.srv
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	if err := srv.Shutdown(ctx); err != nil {
		// Past the deadline: fall back to the hard close so no connection
		// outlives the process teardown.
		srv.Close()
		return err
	}
	return nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	fn := s.healthFn
	s.mu.Unlock()
	ok, detail := true, any(nil)
	if fn != nil {
		ok, detail = fn()
	}
	status := "ok"
	code := http.StatusOK
	if !ok {
		status = "degraded"
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(map[string]any{"status": status, "detail": detail})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	regs := append([]*metrics.Registry(nil), s.regs...)
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	metrics.WritePrometheus(w, regs...)
	writeGoSeries(w)
}

// goSeries are the process-wide garbage-collector series every /metrics page
// ends with, read from runtime/metrics at scrape time: GC cycles, the
// runtime's estimate of the CPU time the collector took (comparable with
// other /cpu/classes values, not with the OS's CPU clock) and the bytes the
// heap has handed out. Divided by a request counter over the same interval
// they are a process's GC cost per request.
var goSeries = []struct{ name, key string }{
	{"teamnet_go_gc_cycles_total", "/gc/cycles/total:gc-cycles"},
	{"teamnet_go_gc_cpu_seconds_total", "/cpu/classes/gc/total:cpu-seconds"},
	{"teamnet_go_heap_allocs_bytes_total", "/gc/heap/allocs:bytes"},
}

func writeGoSeries(w io.Writer) {
	samples := make([]rtmetrics.Sample, len(goSeries))
	for i, s := range goSeries {
		samples[i].Name = s.key
	}
	rtmetrics.Read(samples)
	for i, s := range samples {
		switch s.Value.Kind() {
		case rtmetrics.KindUint64:
			fmt.Fprintf(w, "%s %d\n", goSeries[i].name, s.Value.Uint64())
		case rtmetrics.KindFloat64:
			fmt.Fprintf(w, "%s %g\n", goSeries[i].name, s.Value.Float64())
		}
	}
}

// tracesEntry is one trace in the /traces response.
type tracesEntry struct {
	TraceID string       `json:"trace_id"`
	Spans   []trace.Span `json:"spans"`
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	fn := s.tracerFn
	s.mu.Unlock()
	var tr *trace.Tracer
	if fn != nil {
		tr = fn()
	}
	n := 10
	if q := r.URL.Query().Get("n"); q != "" {
		if v, err := strconv.Atoi(q); err == nil && v > 0 {
			n = v
		}
	}
	var ids []uint64
	if q := r.URL.Query().Get("id"); q != "" {
		id, err := strconv.ParseUint(q, 16, 64)
		if err != nil {
			http.Error(w, "bad trace id: "+q, http.StatusBadRequest)
			return
		}
		ids = []uint64{id}
	} else {
		ids = tr.TraceIDs(n)
	}
	out := make([]tracesEntry, 0, len(ids))
	for _, id := range ids {
		out = append(out, tracesEntry{
			TraceID: fmt.Sprintf("%016x", id),
			Spans:   tr.Trace(id),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}
