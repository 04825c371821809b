// Live wall-clock serving (`serve http`) and its virtual-time replay
// (`serve replay`).
//
// The determinism contract: a live run is driven by the outside world —
// HTTP submissions and a SIGTERM drain — so its schedule is not
// reproducible from the config alone. Recording closes the gap: the
// server writes -record-script (PRAMARS1: every submission, resize and
// the drain, with the deployment spec on the meta line) and -record-trace
// (PRAMTRC1). `serve replay` rebuilds the deployment from the meta line,
// replays the script while recording a new one, and fails unless the copy
// equals the input; -trace and -events byte-compare the re-recorded trace
// and event dump too — `run -check` for runs against a wall clock.

package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"
	"maps"
	"net"
	"net/http"
	"os"
	"os/signal"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/replay"
	"repro/internal/serve"
)

// metaLine serializes the deployment spec onto the script's meta line.
// String values are strconv.Quote'd so tenant specs with spaces survive;
// engines records the server's starting K. autoscale carries the raw
// MIN:MAX[:WINDOW] policy flag, so the replayed server runs the same
// autoscaler; readers predating the key ignore it (unknown keys are
// forward-compatible).
func metaLine(sf *sharedFlags, tenants, arrival string, engines int, autoscale string) string {
	return fmt.Sprintf("tenants=%s arrival=%s n=%d engines=%d queue=%d mode=%s seed=%d wseed=%d interconnect=%s kexp=%g gran=%g dualrail=%t allowkind=%t autoscale=%s",
		strconv.Quote(tenants), strconv.Quote(arrival), sf.procs, engines, sf.queue,
		strconv.Quote(sf.mode), sf.seed, sf.wseed, strconv.Quote(sf.interconnect),
		sf.kexp, sf.gran, sf.dualRail, sf.allowKind, strconv.Quote(autoscale))
}

// parseMetaLine splits a meta line back into its key=value pairs,
// honoring quoted values.
func parseMetaLine(meta string) (map[string]string, error) {
	kv := map[string]string{}
	s := strings.TrimSpace(meta)
	for s != "" {
		eq := strings.IndexByte(s, '=')
		if eq <= 0 {
			return nil, fmt.Errorf("script meta: no key=value at %q", s)
		}
		key := s[:eq]
		s = s[eq+1:]
		var val string
		if strings.HasPrefix(s, `"`) {
			q, err := strconv.QuotedPrefix(s)
			if err != nil {
				return nil, fmt.Errorf("script meta: bad quoted value for %s: %v", key, err)
			}
			if val, err = strconv.Unquote(q); err != nil {
				return nil, fmt.Errorf("script meta: bad quoted value for %s: %v", key, err)
			}
			s = s[len(q):]
		} else if sp := strings.IndexByte(s, ' '); sp >= 0 {
			val, s = s[:sp], s[sp:]
		} else {
			val, s = s, ""
		}
		kv[key] = val
		s = strings.TrimLeft(s, " ")
	}
	return kv, nil
}

// configFromMeta rebuilds the serve.Config a recorded live run was built
// from. Each meta key that names a shared flag (allowkind names
// -allow-kind-mismatch) is set, in sorted key order, on a fresh addShared
// flag set, so a missing key keeps its default and a bad value fails as
// the flag would. tenants, arrival and autoscale are read as cmdHTTP's own
// flags; other keys (such as the legacy workers=) are ignored.
func configFromMeta(meta string, verbose bool) (serve.Config, error) {
	kv, err := parseMetaLine(meta)
	if err != nil {
		return serve.Config{}, err
	}
	fs := flag.NewFlagSet("script meta", flag.ContinueOnError)
	sf := addShared(fs)
	for _, key := range slices.Sorted(maps.Keys(kv)) {
		name := key
		if key == "allowkind" {
			name = "allow-kind-mismatch"
		}
		if fs.Lookup(name) == nil {
			continue
		}
		if err := fs.Set(name, kv[key]); err != nil {
			return serve.Config{}, fmt.Errorf("script meta: bad %s=%q: %v", key, kv[key], err)
		}
	}
	sf.verbose = verbose
	tenants := kv["tenants"]
	if tenants == "" {
		return serve.Config{}, fmt.Errorf("script meta has no tenants spec — not recorded by `serve http`?")
	}
	arrival, ok := kv["arrival"]
	if !ok {
		arrival = "external"
	}
	cfg, err := sf.config(tenants, arrival)
	if err != nil {
		return serve.Config{}, err
	}
	if cfg.Autoscale, err = parseAutoscale(kv["autoscale"]); err != nil {
		return serve.Config{}, fmt.Errorf("script meta: %v", err)
	}
	return cfg, nil
}

// checkScriptEvents rejects a script whose submissions name a tenant the
// rebuilt deployment s does not have (Server.Submit panics on those), or
// whose resizes name a K that no live run of s can record: the autoscaler
// grows K at most to the band count and only halves it, so every recorded
// K is at most max(starting K, Bands()). A larger K would build that many
// shard machines before the first round.
func checkScriptEvents(events []replay.ScriptEvent, s *serve.Server) error {
	maxK := max(s.Engines(), s.Bands())
	for i, ev := range events {
		switch {
		case ev.IsResize() && ev.K > maxK:
			return fmt.Errorf("script event %d (r %d %d) resizes to K=%d, but the meta line's deployment never runs more than %d engines",
				i, ev.Round, ev.K, ev.K, maxK)
		case !ev.IsResize() && !ev.IsDrain() && ev.Tenant >= s.NumTenants():
			return fmt.Errorf("script event %d (a %d %d %d) submits to tenant %d, but the meta line builds %d tenants",
				i, ev.Round, ev.Tenant, ev.Credits, ev.Tenant, s.NumTenants())
		}
	}
	return nil
}

// parseAutoscale decodes MIN:MAX[:WINDOW]; the empty spec is no
// autoscaler (fixed K).
func parseAutoscale(s string) (*serve.AutoscaleConfig, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return nil, fmt.Errorf("autoscale %q: want MIN:MAX[:WINDOW]", s)
	}
	cfg := &serve.AutoscaleConfig{}
	var err error
	if cfg.Min, err = strconv.Atoi(parts[0]); err != nil || cfg.Min < 1 {
		return nil, fmt.Errorf("autoscale %q: bad MIN %q", s, parts[0])
	}
	if cfg.Max, err = strconv.Atoi(parts[1]); err != nil || cfg.Max < cfg.Min {
		return nil, fmt.Errorf("autoscale %q: bad MAX %q (want >= MIN)", s, parts[1])
	}
	if len(parts) == 3 {
		if cfg.Interval, err = strconv.Atoi(parts[2]); err != nil || cfg.Interval < 1 {
			return nil, fmt.Errorf("autoscale %q: bad WINDOW %q", s, parts[2])
		}
	}
	return cfg, nil
}

// Bounds on how long a client may hold a connection, and the goroutine
// serving it, without making progress: one that never finishes its
// request headers, and an idle keep-alive connection.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer is the live server's http.Server for handler.
func newHTTPServer(handler http.Handler) *http.Server {
	return &http.Server{Handler: handler, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

func cmdHTTP(args []string) error {
	fs := flag.NewFlagSet("serve http", flag.ExitOnError)
	sf := addShared(fs)
	tenants := fs.String("tenants", "uniform,uniform", "tenant mix spec (see package doc)")
	arrival := fs.String("arrival", "external", "arrival process: external (Submit-only), closed:W or open:PERIOD:BURST[:ON:OFF]")
	addr := fs.String("addr", "127.0.0.1:8080", "HTTP listen address")
	every := fs.Duration("round-every", 5*time.Millisecond, "wall-clock interval between serving rounds")
	autoscale := fs.String("autoscale", "", "autoscaler bounds MIN:MAX[:WINDOW] (empty = fixed K)")
	scriptOut := fs.String("record-script", "", "record the arrival script (PRAMARS1) to FILE")
	traceOut := fs.String("record-trace", "", "record the executed steps (PRAMTRC1) to FILE")
	eventsOut := fs.String("record-events", "", "write the event dump (Chrome/Perfetto JSON) to FILE at shutdown")
	pprofOn := fs.Bool("pprof", false, "mount the stdlib /debug/pprof/* handlers (wall-clock host profiles)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := sf.config(*tenants, *arrival)
	if err != nil {
		return err
	}
	if cfg.Autoscale, err = parseAutoscale(*autoscale); err != nil {
		return err
	}
	logf := log.New(os.Stderr, "serve: ", 0).Printf
	s, err := serve.NewServer(cfg)
	if err != nil {
		return err
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := s.StartTrace(f); err != nil {
			return err
		}
	}
	if *scriptOut != "" {
		f, err := os.Create(*scriptOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := s.StartScript(f, metaLine(sf, *tenants, *arrival, s.Engines(), *autoscale)); err != nil {
			return err
		}
	}
	if a := s.Autoscaler(); a != nil {
		logf("autoscaler: %v", a.Config())
	}
	h := serve.NewHTTPServer(s, serve.HTTPOptions{Pprof: *pprofOn, Logf: logf})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := newHTTPServer(h.Handler())
	go srv.Serve(ln)
	go h.Loop(*every)
	logf("listening on http://%s — POST /submit?tenant=NAME&steps=N, GET /metrics, GET /healthz (K=%d, round every %v)",
		ln.Addr(), s.Engines(), *every)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	start := time.Now()
	<-sig
	logf("signal received: stopping admission, draining queues")
	err = h.Shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	srv.Shutdown(ctx)
	cancel()
	printSummary(newOutcome(s, time.Since(start)))
	if *eventsOut != "" {
		if ferr := writeEvents(s, *eventsOut); ferr != nil && err == nil {
			err = ferr
		}
		fmt.Printf("event dump: %s\n", *eventsOut)
	}
	if *scriptOut != "" {
		fmt.Printf("arrival script: %s\n", *scriptOut)
	}
	if *traceOut != "" {
		fmt.Printf("step trace: %s\n", *traceOut)
	}
	return err
}

// firstDiff names the first line at which two scripts' texts differ.
func firstDiff(want, got []byte) string {
	w, g := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	n := min(len(w), len(g))
	for i := range n {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d: want %q, got %q", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("line %d: one script ends there", n+1)
}

func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("serve replay", flag.ExitOnError)
	script := fs.String("script", "", "PRAMARS1 arrival script to replay (required)")
	trace := fs.String("trace", "", "recorded PRAMTRC1 trace to byte-compare against the replay's re-recording")
	events := fs.String("events", "", "recorded event dump (Chrome/Perfetto JSON) to byte-compare against the replay's")
	verbose := fs.Bool("v", false, "log degradation warnings to stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *script == "" {
		return fmt.Errorf("replay needs -script FILE")
	}
	input, err := os.ReadFile(*script)
	if err != nil {
		return err
	}
	sc, err := replay.ReadScript(bytes.NewReader(input))
	if err != nil {
		return err
	}
	cfg, err := configFromMeta(sc.Meta, *verbose)
	if err != nil {
		return err
	}
	s, err := serve.NewServer(cfg)
	if err != nil {
		return err
	}
	if err := checkScriptEvents(sc.Events, s); err != nil {
		return err
	}

	var rerec, rescript bytes.Buffer
	if *trace != "" {
		if err := s.StartTrace(&rerec); err != nil {
			return err
		}
	}
	if err := s.StartScript(&rescript, sc.Meta); err != nil {
		return err
	}
	start := time.Now()
	s.PlayScript(sc.Events, sc.Rounds)
	if err := s.StopTrace(); err != nil {
		return err
	}
	if err := s.StopScript(); err != nil {
		return err
	}
	printSummary(newOutcome(s, time.Since(start)))

	// The replay IS the check, as in `run -check`: the server re-recorded
	// the script it played, and any divergence from the live run (a
	// resize, a tenant's step count or report hash, the round count, the
	// store fingerprint) makes that copy differ from the input.
	again, err := replay.ReadScript(bytes.NewReader(rescript.Bytes()))
	if err != nil {
		return fmt.Errorf("re-recorded script: %v", err)
	}
	if !reflect.DeepEqual(again, sc) {
		return fmt.Errorf("re-recorded script differs from %s at %s", *script, firstDiff(input, rescript.Bytes()))
	}
	if *events != "" {
		recorded, err := os.ReadFile(*events)
		if err != nil {
			return err
		}
		var redump bytes.Buffer
		if err := s.WriteEvents(&redump, 0); err != nil {
			return err
		}
		if !bytes.Equal(recorded, redump.Bytes()) {
			return fmt.Errorf("replayed event dump differs from %s (%d vs %d bytes)", *events, len(recorded), redump.Len())
		}
		fmt.Printf("events: byte-identical to %s (%d bytes, %d events)\n", *events, redump.Len(), s.Events().Len())
	}
	if *trace != "" {
		recorded, err := os.ReadFile(*trace)
		if err != nil {
			return err
		}
		if !bytes.Equal(recorded, rerec.Bytes()) {
			return fmt.Errorf("re-recorded trace differs from %s (%d vs %d bytes)", *trace, len(recorded), rerec.Len())
		}
		fmt.Printf("trace: byte-identical to %s (%d bytes)\n", *trace, rerec.Len())
	}
	fmt.Printf("replay: OK — %d tenants, %d rounds, fingerprint %016x: the re-recorded script equals %s\n",
		s.NumTenants(), sc.Rounds, sc.Fingerprint, *script)
	return nil
}
