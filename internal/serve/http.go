// This file is the ONE place the serving lane touches the wall clock:
// the live HTTP round loop ticks in real time to pace virtual rounds.
// Wall time never reaches simulation state — every tick is translated
// into a virtual-round advance, and the server's PRAMARS1 script records
// those rounds so `serve replay` reproduces the run entirely in virtual
// time.
//
//pram:wallclock

package serve

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"repro/internal/exposition"
	"repro/internal/replay"
)

// HTTPOptions configures the live HTTP front end around a Server.
type HTTPOptions struct {
	// Registry receives the server's collectors (Server.Metrics, the
	// autoscaler's included) and the HTTP layer's, and backs GET /metrics
	// (nil → a fresh internal registry).
	Registry *exposition.Registry
	// Pprof mounts the stdlib /debug/pprof/* handlers on the mux. Off by
	// default: the profiles are wall-clock observations of the host process
	// (CPU samples, goroutine stacks, heap), strictly outside the virtual
	// timeline, and they expose process internals — opt in per deployment.
	Pprof bool
	// Logf receives operational one-liners (listen, drain, resize).
	Logf func(format string, args ...any)
}

// HTTPServer is the live serving mode: it maps tenant submissions arriving
// over HTTP onto the Server's bounded admission queues (backpressure is an
// explicit 429, never a silent drop), advances virtual rounds on a
// wall-clock ticker, exposes the metrics registry and a health probe, and
// drains gracefully on Shutdown. Determinism in wall-clock mode comes from
// the Server's own recording: with Server.StartScript (and StartTrace)
// attached, the live run writes an arrival script + trace that replay
// bit-for-bit in virtual time — the wall clock only decides WHICH virtual
// schedule gets recorded.
//
// All Server access is serialized behind one mutex: handlers and the round
// loop interleave at round granularity, so every HTTP-visible state is a
// between-rounds state.
type HTTPServer struct {
	mu   sync.Mutex
	s    *Server
	reg  *exposition.Registry
	logf func(string, ...any)

	pprof bool

	shut    bool
	shutErr error
	quit    chan struct{}

	// HTTP admission counters (guarded by mu).
	submits   int64 // submissions admitted to Server.Submit
	throttled int64 // submissions answered 429 (queue rejected credits)
	denied    int64 // submissions answered 503 (draining or shut down)
}

// NewHTTPServer wires the front end: the server's metrics land on the
// registry alongside the HTTP layer's own counters.
func NewHTTPServer(s *Server, o HTTPOptions) *HTTPServer {
	reg := o.Registry
	if reg == nil {
		reg = &exposition.Registry{}
	}
	h := &HTTPServer{s: s, reg: reg, logf: o.Logf, pprof: o.Pprof, quit: make(chan struct{})}
	s.Metrics(reg)
	reg.Register(httpCollector{h})
	return h
}

// Server exposes the wrapped serving core. Touch it only before Loop
// starts or after Shutdown returns — in between the HTTPServer owns it.
func (h *HTTPServer) Server() *Server { return h.s }

// Registry returns the metrics registry backing GET /metrics.
func (h *HTTPServer) Registry() *exposition.Registry { return h.reg }

// Handler returns the HTTP surface:
//
//	POST /submit?tenant=NAME&steps=N   offer N step credits (default 1, at most replay.MaxCredits)
//	GET  /metrics                      Prometheus text exposition
//	GET  /healthz                      200 ok, 503 once draining
//	GET  /debug/events[?limit=N]       event dump (Chrome/Perfetto JSON, virtual time)
//	GET  /debug/pprof/*                stdlib profiles (only with Pprof: true)
func (h *HTTPServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/submit", h.handleSubmit)
	mux.HandleFunc("/metrics", h.handleMetrics)
	mux.HandleFunc("/healthz", h.handleHealthz)
	mux.HandleFunc("/debug/events", h.handleEvents)
	if h.pprof {
		// The stdlib handlers self-register on http.DefaultServeMux; mount
		// them explicitly so they exist only when opted in and only here.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// handleSubmit maps one submission onto the tenant's bounded queue. The
// split between accepted and rejected credits is the Server's own
// deterministic admission decision; this handler only translates it to
// status codes — 200 all accepted, 429 when the queue rejected any part
// (backpressure made loud), 400 for steps outside [1, replay.MaxCredits],
// 404 unknown tenant, 503 during drain. Refused (400/404/503) submissions
// never reach the Server, so its arrival script holds exactly the
// submissions that touched the admission accounting.
func (h *HTTPServer) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	q := r.URL.Query()
	name := q.Get("tenant")
	n := 1
	if v := q.Get("steps"); v != "" {
		var err error
		if n, err = strconv.Atoi(v); err != nil || n < 1 || n > replay.MaxCredits {
			http.Error(w, fmt.Sprintf("bad steps %q: want an integer in [1, %d]", v, replay.MaxCredits), http.StatusBadRequest)
			return
		}
	}
	h.mu.Lock()
	id, ok := h.s.TenantID(name)
	if !ok {
		h.mu.Unlock()
		http.Error(w, fmt.Sprintf("unknown tenant %q", name), http.StatusNotFound)
		return
	}
	if h.shut || h.s.Draining() {
		h.denied++
		h.mu.Unlock()
		http.Error(w, "draining: admission stopped", http.StatusServiceUnavailable)
		return
	}
	acc, rej := h.s.Submit(id, n)
	h.submits++
	status := http.StatusOK
	if rej > 0 {
		h.throttled++
		status = http.StatusTooManyRequests
	}
	h.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	fmt.Fprintf(w, "{\"tenant\":%s,\"accepted\":%d,\"rejected\":%d}\n", jsonString(name), acc, rej)
}

// handleMetrics renders the registry between rounds.
func (h *HTTPServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	defer h.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	h.reg.WriteTo(w)
}

// handleEvents writes the event dump between rounds: the most recent
// admission events and round-pipeline stages as deterministic
// Chrome/Perfetto JSON on the virtual clock, reproduced
// byte-for-byte by `serve replay -events` from the recorded script. GET
// only (anything else is 405 with an Allow header, matching handleSubmit's
// shape); ?limit=N bounds the dump to the N most recent events, the
// truncation counted in its dropped field (400 on a malformed or
// non-positive N).
func (h *HTTPServer) handleEvents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	limit := 0
	if v := r.URL.Query().Get("limit"); v != "" {
		var err error
		if limit, err = strconv.Atoi(v); err != nil || limit < 1 {
			http.Error(w, fmt.Sprintf("bad limit %q: want a positive integer", v), http.StatusBadRequest)
			return
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	h.s.WriteEvents(w, limit)
}

// handleHealthz flips to 503 once admission stops, so load balancers stop
// routing submissions at a draining deployment.
func (h *HTTPServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	draining := h.shut || h.s.Draining()
	h.mu.Unlock()
	if draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// Tick advances one serving round (Server.Round, which also runs the
// server's autoscaler), unless Shutdown has begun.
func (h *HTTPServer) Tick() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.shut {
		return
	}
	h.s.Round()
}

// Loop runs the wall-clock round loop — one Tick per interval (0 → 5ms) —
// until Shutdown. It blocks; run it on its own goroutine next to the HTTP
// listener.
func (h *HTTPServer) Loop(every time.Duration) {
	if every <= 0 {
		every = 5 * time.Millisecond
	}
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-h.quit:
			return
		case <-tick.C:
			h.Tick()
		}
	}
}

// Shutdown is the graceful-drain half of SIGTERM handling: it drains the
// server (Server.Drain, whose admission stop is the script's drain line),
// stops the trace and the arrival script if they are recording (the
// script's footer), then releases the round loop. Idempotent; returns the
// first recording error. The caller still owns the Server (and its pool)
// and the underlying files.
func (h *HTTPServer) Shutdown() error {
	h.mu.Lock()
	if h.shut {
		err := h.shutErr
		h.mu.Unlock()
		return err
	}
	h.shut = true
	h.s.Drain()
	err := h.s.StopTrace()
	if serr := h.s.StopScript(); serr != nil && err == nil {
		err = serr
	}
	h.shutErr = err
	if h.logf != nil {
		st := h.s.Stats()
		h.logf("drained after %d rounds (%d exec, %d resizes)", st.Rounds, st.ExecRounds, st.Resizes)
	}
	h.mu.Unlock()
	close(h.quit)
	return err
}

// httpCollector exposes the HTTP admission counters.
type httpCollector struct{ h *HTTPServer }

func (c httpCollector) Describe(desc func(exposition.Desc)) {
	desc(exposition.Desc{Name: "pramsim_serve_http_submits_total", Help: "submissions admitted to the server", Type: "counter"})
	desc(exposition.Desc{Name: "pramsim_serve_http_throttled_total", Help: "submissions answered 429 (queue rejected credits)", Type: "counter"})
	desc(exposition.Desc{Name: "pramsim_serve_http_denied_total", Help: "submissions answered 503 while draining", Type: "counter"})
}

func (c httpCollector) Collect(emit func(exposition.Sample)) {
	emit(exposition.Sample{Name: "pramsim_serve_http_submits_total", Value: float64(c.h.submits)})
	emit(exposition.Sample{Name: "pramsim_serve_http_throttled_total", Value: float64(c.h.throttled)})
	emit(exposition.Sample{Name: "pramsim_serve_http_denied_total", Value: float64(c.h.denied)})
}
