// Live wall-clock serving (`serve http`) and its virtual-time replay
// (`serve replay`).
//
// The determinism contract: a live run is driven by the outside world —
// HTTP submissions, scrape-driven autoscaler resizes, a SIGTERM drain —
// so its schedule is not reproducible from the config alone. Recording
// closes the gap: -record-script captures every external event (PRAMARS1,
// with the full deployment spec on the meta line) and -record-trace the
// executed steps (PRAMTRC1, tenant lanes). `serve replay` rebuilds the
// deployment FROM the script's meta line, re-applies the events in virtual
// time, and verifies per-tenant step counts and report hashes plus the
// final store fingerprint against the script footer; with -trace it
// re-records the replay and byte-compares the two captures — `run -check`
// for runs that happened against a wall clock.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/replay"
	"repro/internal/serve"
)

// metaLine serializes the deployment spec onto the script's meta line.
// String values are strconv.Quote'd so tenant specs with spaces survive;
// engines records the RESOLVED starting K (the live flag may have been 0 =
// "consult the environment", which a replay host must not re-consult).
// autoscale carries the raw MIN:MAX[:WINDOW] policy flag so replay can run
// a shadow autoscaler and reproduce the event log's decision events;
// readers predating the key ignore it (unknown keys are forward-compatible).
func metaLine(sf *sharedFlags, tenants, arrival string, engines int, autoscale string) string {
	return fmt.Sprintf("tenants=%s arrival=%s n=%d engines=%d workers=%d queue=%d mode=%s seed=%d wseed=%d interconnect=%s kexp=%g gran=%g dualrail=%t allowkind=%t autoscale=%s",
		strconv.Quote(tenants), strconv.Quote(arrival), sf.procs, engines, sf.workers, sf.queue,
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
// from. Unknown keys are ignored (forward compatibility); missing ones
// take the live defaults.
func configFromMeta(meta string, verbose bool) (serve.Config, error) {
	kv, err := parseMetaLine(meta)
	if err != nil {
		return serve.Config{}, err
	}
	str := func(key, def string) string {
		if v, ok := kv[key]; ok {
			return v
		}
		return def
	}
	var ferr error
	num := func(key string, def int) int {
		v, ok := kv[key]
		if !ok {
			return def
		}
		n, err := strconv.Atoi(v)
		if err != nil && ferr == nil {
			ferr = fmt.Errorf("script meta: bad %s=%q", key, v)
		}
		return n
	}
	f64 := func(key string) float64 {
		v, ok := kv[key]
		if !ok {
			return 0
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil && ferr == nil {
			ferr = fmt.Errorf("script meta: bad %s=%q", key, v)
		}
		return f
	}
	sf := &sharedFlags{
		procs:        num("n", 64),
		engines:      num("engines", 1),
		workers:      num("workers", 0),
		queue:        num("queue", 8),
		seed:         int64(num("seed", 1)),
		wseed:        int64(num("wseed", 99)),
		mode:         str("mode", "crcw"),
		interconnect: str("interconnect", ""),
		kexp:         f64("kexp"),
		gran:         f64("gran"),
		dualRail:     str("dualrail", "false") == "true",
		allowKind:    str("allowkind", "false") == "true",
	}
	if ferr != nil {
		return serve.Config{}, ferr
	}
	tenants := str("tenants", "")
	if tenants == "" {
		return serve.Config{}, fmt.Errorf("script meta has no tenants spec — not recorded by `serve http`?")
	}
	mode, err := parseMode(sf.mode)
	if err != nil {
		return serve.Config{}, err
	}
	arr, err := parseArrival(str("arrival", "external"))
	if err != nil {
		return serve.Config{}, err
	}
	tcs, err := parseTenants(tenants, sf, arr)
	if err != nil {
		return serve.Config{}, err
	}
	cfg := serve.Config{
		Tenants: tcs, Engines: sf.engines, Workers: sf.workers,
		Mode: mode, Seed: sf.seed, QueueCap: sf.queue,
	}
	if err := sf.applyShared(&cfg); err != nil {
		return serve.Config{}, err
	}
	if verbose {
		cfg.Logf = log.New(os.Stderr, "serve: ", 0).Printf
	}
	return cfg, nil
}

// metaValue extracts one key's value from a script meta line ("" if the
// key is absent — scripts recorded before the key existed).
func metaValue(meta, key string) (string, error) {
	kv, err := parseMetaLine(meta)
	if err != nil {
		return "", err
	}
	return kv[key], nil
}

// parseAutoscale decodes MIN:MAX[:WINDOW].
func parseAutoscale(s string) (serve.AutoscaleConfig, error) {
	parts := strings.Split(s, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return serve.AutoscaleConfig{}, fmt.Errorf("autoscale %q: want MIN:MAX[:WINDOW]", s)
	}
	var cfg serve.AutoscaleConfig
	var err error
	if cfg.Min, err = strconv.Atoi(parts[0]); err != nil || cfg.Min < 1 {
		return cfg, fmt.Errorf("autoscale %q: bad MIN %q", s, parts[0])
	}
	if cfg.Max, err = strconv.Atoi(parts[1]); err != nil || cfg.Max < cfg.Min {
		return cfg, fmt.Errorf("autoscale %q: bad MAX %q (want >= MIN)", s, parts[1])
	}
	if len(parts) == 3 {
		if cfg.Interval, err = strconv.Atoi(parts[2]); err != nil || cfg.Interval < 1 {
			return cfg, fmt.Errorf("autoscale %q: bad WINDOW %q", s, parts[2])
		}
	}
	return cfg, nil
}

// summarize renders the post-drain state through the run-verb table.
func summarize(s *serve.Server, elapsed time.Duration) {
	o := &outcome{serverStats: s.Stats(), fingerprint: s.Fingerprint(), elapsed: elapsed, server: s}
	for i := 0; i < s.NumTenants(); i++ {
		o.stats = append(o.stats, s.TenantStats(i))
	}
	printSummary(o)
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
	eventsOut := fs.String("record-events", "", "dump the event log (Perfetto trace JSON) to FILE at shutdown")
	pprofOn := fs.Bool("pprof", false, "mount the stdlib /debug/pprof/* handlers (wall-clock host profiles)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	mode, err := parseMode(sf.mode)
	if err != nil {
		return err
	}
	arr, err := parseArrival(*arrival)
	if err != nil {
		return err
	}
	tcs, err := parseTenants(*tenants, sf, arr)
	if err != nil {
		return err
	}
	cfg := serve.Config{
		Tenants: tcs, Engines: sf.engines, Workers: sf.workers,
		Mode: mode, Seed: sf.seed, QueueCap: sf.queue,
	}
	if err := sf.applyShared(&cfg); err != nil {
		return err
	}
	logf := log.New(os.Stderr, "serve: ", 0).Printf
	if sf.verbose {
		cfg.Logf = logf
	}
	s, err := serve.NewServer(cfg)
	if err != nil {
		return err
	}
	defer s.Pool().Close()

	var opts serve.HTTPOptions
	opts.Logf = logf
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
		rec, err := replay.NewScriptRecorder(f, metaLine(sf, *tenants, *arrival, s.Engines(), *autoscale))
		if err != nil {
			return err
		}
		opts.Script = rec
	}
	if *autoscale != "" {
		acfg, err := parseAutoscale(*autoscale)
		if err != nil {
			return err
		}
		opts.Autoscaler = serve.NewAutoscaler(s, acfg)
		logf("autoscaler: %v", opts.Autoscaler.Config())
	}
	opts.Pprof = *pprofOn
	h := serve.NewHTTPServer(s, opts)

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
	summarize(s, time.Since(start))
	if *eventsOut != "" {
		f, ferr := os.Create(*eventsOut)
		if ferr == nil {
			if werr := s.WriteEvents(f, 0); werr != nil {
				ferr = werr
			}
			if cerr := f.Close(); cerr != nil && ferr == nil {
				ferr = cerr
			}
		}
		if ferr != nil && err == nil {
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

func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("serve replay", flag.ExitOnError)
	script := fs.String("script", "", "PRAMARS1 arrival script to replay (required)")
	trace := fs.String("trace", "", "recorded PRAMTRC1 trace to byte-compare against the replay's re-recording")
	events := fs.String("events", "", "recorded event dump (Perfetto trace JSON) to byte-compare against the replay's event log")
	verbose := fs.Bool("v", false, "log degradation warnings to stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *script == "" {
		return fmt.Errorf("replay needs -script FILE")
	}
	f, err := os.Open(*script)
	if err != nil {
		return err
	}
	sc, err := replay.ReadScript(f)
	f.Close()
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
	defer s.Pool().Close()

	var rerec bytes.Buffer
	if *trace != "" {
		if err := s.StartTrace(&rerec); err != nil {
			return err
		}
	}
	// A recorded autoscale policy replays as a SHADOW autoscaler: it re-runs
	// the live decision function on the replayed round stream (reproducing
	// the event log's decision events), and the script's own resize
	// events become no-ops because the shadow already moved K.
	var observe func()
	if spec, err := metaValue(sc.Meta, "autoscale"); err != nil {
		return err
	} else if spec != "" {
		acfg, err := parseAutoscale(spec)
		if err != nil {
			return fmt.Errorf("script meta: %v", err)
		}
		shadow := serve.NewAutoscaler(s, acfg)
		observe = func() { shadow.Observe() }
	}
	start := time.Now()
	s.PlayScriptObserved(sc.Events, sc.Rounds, observe)
	if err := s.StopTrace(); err != nil {
		return err
	}
	summarize(s, time.Since(start))

	// The replay IS the check: every divergence from the recorded footer is
	// an error, exactly like `run -check`.
	if got := s.Stats().Rounds; got != sc.Rounds {
		return fmt.Errorf("replay ran %d rounds, script footer says %d", got, sc.Rounds)
	}
	if len(sc.Tenants) != s.NumTenants() {
		return fmt.Errorf("replay has %d tenants, script footer %d", s.NumTenants(), len(sc.Tenants))
	}
	for i, want := range sc.Tenants {
		st := s.TenantStats(i)
		if st.Name != want.Name || st.Steps != want.Steps || st.Hash != want.Hash {
			return fmt.Errorf("tenant %d diverged from the live run: replay {%s steps=%d hash=%x}, script {%s steps=%d hash=%x}",
				i, st.Name, st.Steps, st.Hash, want.Name, want.Steps, want.Hash)
		}
	}
	if fp := s.Fingerprint(); fp != sc.Fingerprint {
		return fmt.Errorf("replay fingerprint %016x != recorded %016x", fp, sc.Fingerprint)
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
		fmt.Printf("replay: OK — %d tenants, %d rounds, fingerprint %016x, trace byte-identical (%d bytes)\n",
			s.NumTenants(), sc.Rounds, sc.Fingerprint, rerec.Len())
		return nil
	}
	fmt.Printf("replay: OK — %d tenants, %d rounds, fingerprint %016x match the live run\n",
		s.NumTenants(), sc.Rounds, sc.Fingerprint)
	return nil
}
