// Command serve runs the multi-tenant serving front end
// (repro/internal/serve): a mix of tenants — synthetic pattern generators
// or recorded PRAMTRC1 traces — admitted through bounded queues and
// scheduled band-aware onto a pool of K concurrent quorum engines.
//
// Verbs:
//
//	serve run     -tenants SPEC [flags]   serve a workload mix, print the
//	                                      per-tenant summary + fingerprint
//	serve loadgen [shape flags]           open-/closed-loop load generator:
//	                                      uniform tenants, arrival shaping,
//	                                      throughput + backpressure report
//	serve http    -tenants SPEC [flags]   live wall-clock serving: tenant
//	                                      submission over POST /submit, live
//	                                      /metrics + /healthz, scrape-driven
//	                                      K-autoscaling, graceful SIGTERM
//	                                      drain; -record-script/-record-trace
//	                                      capture the run for replay and
//	                                      -record-events dumps the event log
//	serve events  -tenants SPEC [flags]   serve a workload mix and dump the
//	                                      event log as Chrome/Perfetto
//	                                      trace-event JSON: admission events
//	                                      and per-stage makespan attribution
//	                                      on the virtual clock ("where did
//	                                      the round go")
//	serve replay  -script FILE [-trace T] replay a recorded live run in
//	              [-events E]             virtual time and verify it against
//	                                      the script footer (and, with
//	                                      -trace/-events, byte-compare the
//	                                      trace and the event-log dump)
//	serve promlint FILE                   validate a Prometheus text
//	                                      exposition (grammar, histogram
//	                                      invariants); - reads stdin
//
// Tenant spec (run): comma-separated items, each
//
//	PATTERN[:steps]      band-local synthetic traffic (uniform, hotspot,
//	                     broadcast; `global` is cross-band uniform — it
//	                     deliberately erodes the disjoint fast path)
//	trace:FILE[:lane]    one lane of a recorded trace, addresses remapped
//	                     into the tenant's band
//
// Tenant i owns band i. Arrivals: -arrival closed:W (W credits kept
// outstanding), open:PERIOD:BURST[:ON:OFF] (open-loop, optionally bursty;
// PERIOD and BURST must be >= 1), or external (no autonomous arrivals —
// credits enter only through `serve http` submissions). -check runs the
// mix twice and fails unless the per-tenant
// report hashes and the final store fingerprint repeat bit-for-bit — the
// determinism gate CI's serve smoke runs under the race detector.
// -metrics FILE writes the final Prometheus text exposition ("-" for
// stdout).
//
// -interconnect selects the fabric behind every shard: bipartite (the
// default complete processor↔module graph) or mot2d, which gives each
// engine its own a×a 2D mesh-of-trees (Theorem 3) sized by -gran (grid
// side = ceilPow2((n·bands)^((1+δ)/2))), with -dualrail enabling the
// row+column bank split and -kexp overriding the memory exponent. Trace
// tenants recorded on a different machine kind are refused at admission
// unless -allow-kind-mismatch is set.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/model"
	"repro/internal/prom"
	"repro/internal/replay"
	"repro/internal/serve"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "loadgen":
		err = cmdLoadgen(os.Args[2:])
	case "http":
		err = cmdHTTP(os.Args[2:])
	case "events":
		err = cmdEvents(os.Args[2:])
	case "replay":
		err = cmdReplay(os.Args[2:])
	case "promlint":
		err = cmdPromlint(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "serve: unknown verb %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  serve run     -tenants SPEC [-n procs] [-engines K] [-workers W]
                [-rounds N] [-queue CAP] [-arrival A] [-mode M]
                [-interconnect bipartite|mot2d] [-kexp K] [-gran D]
                [-dualrail] [-allow-kind-mismatch]
                [-seed S] [-wseed S] [-check] [-metrics FILE] [-v]
  serve loadgen [-pattern P] [-tenants T] [-n procs] [-engines K]
                [-rounds N] [-queue CAP] [-loop closed|open] [-window W]
                [-period P] [-burst B] [-on N -off N] [-seed S] [-wseed S]
                [-interconnect bipartite|mot2d] [-kexp K] [-gran D] [-dualrail]
  serve http    -tenants SPEC [-addr HOST:PORT] [-round-every DUR]
                [-autoscale MIN:MAX[:WINDOW]] [-record-script FILE]
                [-record-trace FILE] [-record-events FILE] [-pprof]
                [shared flags as for run]
  serve events  -tenants SPEC [-o FILE] [-limit N] [shared flags as for run]
  serve replay  -script FILE [-trace FILE] [-events FILE] [-v]
  serve promlint FILE
`)
}

// sharedFlags holds the knobs both verbs expose.
type sharedFlags struct {
	procs        int
	engines      int
	workers      int
	rounds       int
	queue        int
	seed         int64
	wseed        int64
	mode         string
	interconnect string
	kexp         float64
	gran         float64
	dualRail     bool
	allowKind    bool
	verbose      bool
}

func addShared(fs *flag.FlagSet) *sharedFlags {
	sf := &sharedFlags{}
	fs.IntVar(&sf.procs, "n", 64, "processors per synthetic tenant")
	fs.IntVar(&sf.engines, "engines", 0, "engine count K (0 = PRAMSIM_ENGINES, <0 = GOMAXPROCS)")
	fs.IntVar(&sf.workers, "workers", 0, "pool executor goroutines (0 = min(K, GOMAXPROCS))")
	fs.IntVar(&sf.rounds, "rounds", 100, "admission rounds before draining (0 = run finite mixes to source exhaustion)")
	fs.IntVar(&sf.queue, "queue", 8, "per-tenant admission queue capacity (step credits)")
	fs.Int64Var(&sf.seed, "seed", 1, "memory-map seed")
	fs.Int64Var(&sf.wseed, "wseed", 99, "workload seed base (tenant i uses wseed+i)")
	fs.StringVar(&sf.mode, "mode", "crcw", "conflict mode: crew, crcw, common, arbitrary")
	fs.StringVar(&sf.interconnect, "interconnect", "", "shard fabric: bipartite (default) or mot2d (per-shard 2D mesh-of-trees)")
	fs.Float64Var(&sf.kexp, "kexp", 0, "memory exponent: Lemma 2 k under bipartite, Theorem 3 under mot2d (0 = default)")
	fs.Float64Var(&sf.gran, "gran", 0, "mot2d granularity exponent δ: grid side = ceilPow2(n^((1+δ)/2)) (0 = 1.5)")
	fs.BoolVar(&sf.dualRail, "dualrail", false, "mot2d: dual-rail row+column banks (Theorem 3 closing remark)")
	fs.BoolVar(&sf.allowKind, "allow-kind-mismatch", false, "replay traces recorded on a different machine kind than the pool's interconnect")
	fs.BoolVar(&sf.verbose, "v", false, "log degradation warnings to stderr")
	return sf
}

// applyShared folds the interconnect knobs into a serve.Config.
func (sf *sharedFlags) applyShared(cfg *serve.Config) error {
	ic, err := serve.ParseInterconnect(sf.interconnect)
	if err != nil {
		return err
	}
	cfg.Interconnect = ic
	cfg.KExp = sf.kexp
	cfg.Gran = sf.gran
	cfg.DualRail = sf.dualRail
	cfg.AllowTraceKindMismatch = sf.allowKind
	return nil
}

// parseMode maps the CLI spelling. EREW is not offered: the serving front
// end resolves conflicts, it does not forbid them (see serve.Config.Mode).
func parseMode(s string) (model.Mode, error) {
	switch s {
	case "crew":
		return model.CREW, nil
	case "crcw", "priority":
		return model.CRCWPriority, nil
	case "common":
		return model.CRCWCommon, nil
	case "arbitrary":
		return model.CRCWArbitrary, nil
	}
	return 0, fmt.Errorf("unknown mode %q (want crew, crcw, common or arbitrary)", s)
}

// parseArrival decodes closed:W / open:PERIOD:BURST[:ON:OFF] / external.
func parseArrival(s string) (serve.Arrival, error) {
	parts := strings.Split(s, ":")
	atoi := func(i int) (int, error) {
		n, err := strconv.Atoi(parts[i])
		if err != nil || n < 0 {
			return 0, fmt.Errorf("arrival %q: bad field %q", s, parts[i])
		}
		return n, nil
	}
	switch parts[0] {
	case "closed":
		w := 1
		if len(parts) > 1 {
			var err error
			if w, err = atoi(1); err != nil {
				return serve.Arrival{}, err
			}
		}
		return serve.Arrival{Window: w}, nil
	case "open":
		a := serve.Arrival{Period: 1, Burst: 1}
		var err error
		if len(parts) > 1 {
			if a.Period, err = atoi(1); err != nil {
				return a, err
			}
		}
		if len(parts) > 2 {
			if a.Burst, err = atoi(2); err != nil {
				return a, err
			}
		}
		if len(parts) == 5 {
			if a.On, err = atoi(3); err != nil {
				return a, err
			}
			if a.Off, err = atoi(4); err != nil {
				return a, err
			}
		} else if len(parts) == 4 || len(parts) > 5 {
			return a, fmt.Errorf("arrival %q: want open:PERIOD:BURST[:ON:OFF]", s)
		}
		// An explicit zero period or burst used to slip through to the
		// Arrival zero value and silently become closed-loop window 1 —
		// the opposite traffic shape of what "open" asked for.
		if a.Period < 1 || a.Burst < 1 {
			return a, fmt.Errorf("arrival %q: open loop needs PERIOD and BURST >= 1 (use closed:W or external instead)", s)
		}
		return a, nil
	case "external", "none":
		if len(parts) > 1 {
			return serve.Arrival{}, fmt.Errorf("arrival %q: external takes no fields", s)
		}
		// No autonomous arrivals: credits enter via Submit (`serve http`).
		return serve.Arrival{External: true}, nil
	}
	return serve.Arrival{}, fmt.Errorf("arrival %q: want closed:W, open:PERIOD:BURST[:ON:OFF] or external", s)
}

// parseTenants renders a -tenants spec into tenant configs.
func parseTenants(spec string, sf *sharedFlags, arrival serve.Arrival) ([]serve.TenantConfig, error) {
	items := strings.Split(spec, ",")
	var out []serve.TenantConfig
	for i, item := range items {
		item = strings.TrimSpace(item)
		if item == "" {
			return nil, fmt.Errorf("tenant %d: empty spec", i)
		}
		head, rest, hasRest := strings.Cut(item, ":")
		tc := serve.TenantConfig{
			Name:     fmt.Sprintf("t%d-%s", i, head),
			Band:     i,
			Arrival:  arrival,
			QueueCap: sf.queue,
		}
		switch head {
		case "trace":
			if !hasRest || rest == "" {
				return nil, fmt.Errorf("tenant %d: trace spec needs a file (trace:FILE[:lane])", i)
			}
			// Bounded split: only a TRAILING integer field is a lane, so
			// trace file paths may themselves contain colons.
			file, lane := rest, 0
			if j := strings.LastIndex(rest, ":"); j >= 0 {
				if n, err := strconv.Atoi(rest[j+1:]); err == nil && n >= 0 {
					file, lane = rest[:j], n
				}
			}
			data, err := os.ReadFile(file)
			if err != nil {
				return nil, fmt.Errorf("tenant %d: %v", i, err)
			}
			r, err := replay.NewReader(bytes.NewReader(data))
			if err != nil {
				return nil, fmt.Errorf("tenant %d: %s: %v", i, file, err)
			}
			tc.Procs = r.Config().Procs
			tc.Source = serve.NewTraceSource(data, lane, false)
			tc.Name = fmt.Sprintf("t%d-trace", i)
		default:
			pat, err := replay.ParsePattern(strings.TrimPrefix(head, "global-"))
			global := false
			if head == "global" {
				pat, err, global = replay.Uniform, nil, true
			} else if strings.HasPrefix(head, "global-") {
				global = true
			}
			if err != nil {
				return nil, fmt.Errorf("tenant %d: %v", i, err)
			}
			steps := int64(0)
			if hasRest {
				n, perr := strconv.Atoi(rest)
				if perr != nil || n < 0 {
					return nil, fmt.Errorf("tenant %d: bad step count %q", i, rest)
				}
				steps = int64(n)
			}
			tc.Procs = sf.procs
			if global {
				tc.Name = fmt.Sprintf("t%d-global-%s", i, pat)
				tc.Source = serve.NewGlobalPatternSource(pat, sf.procs, steps, sf.wseed+int64(i))
			} else {
				tc.Source = serve.NewPatternSource(pat, sf.procs, steps, sf.wseed+int64(i))
			}
		}
		out = append(out, tc)
	}
	return out, nil
}

// outcome is one serving run's comparable result.
type outcome struct {
	stats       []serve.TenantStats
	serverStats serve.Stats
	fingerprint uint64
	elapsed     time.Duration
	server      *serve.Server
}

// execute builds a server from cfg and drives it: `rounds` admission
// rounds then drain, or — when rounds is 0 — until every source is
// exhausted (finite mixes only; this is what makes per-tenant results
// comparable ACROSS engine counts, since every K then serves the exact
// same step sequences to completion).
func execute(cfg serve.Config, rounds int) (*outcome, error) {
	s, err := serve.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	// Close on EVERY exit: the ServeAll and SrcErr error returns below used
	// to leak the pool's worker goroutines. Close is idempotent, so the
	// success path needs no special casing.
	defer s.Pool().Close()
	start := time.Now()
	if rounds <= 0 {
		if err := s.ServeAll(1 << 20); err != nil {
			return nil, fmt.Errorf("%v (use -rounds N for unbounded sources)", err)
		}
	} else {
		s.Run(rounds)
		s.Drain()
	}
	o := &outcome{
		serverStats: s.Stats(),
		fingerprint: s.Fingerprint(),
		elapsed:     time.Since(start),
		server:      s,
	}
	for i := 0; i < s.NumTenants(); i++ {
		st := s.TenantStats(i)
		if st.SrcErr != nil {
			return nil, fmt.Errorf("tenant %s: source failed after %d steps: %v", st.Name, st.Steps, st.SrcErr)
		}
		o.stats = append(o.stats, st)
	}
	return o, nil
}

// printSummary renders the per-tenant table and server totals.
func printSummary(o *outcome) {
	fmt.Printf("%-16s %5s %5s %6s %9s %9s %8s %5s %9s %8s %16s\n",
		"tenant", "band", "shard", "steps", "submitted", "rejected", "unserved", "maxq", "simtime", "phases", "hash")
	var steps int64
	for _, st := range o.stats {
		fmt.Printf("%-16s %5d %5d %6d %9d %9d %8d %5d %9d %8d %16x\n",
			st.Name, st.Band, st.Shard, st.Steps, st.Submitted, st.Rejected,
			st.Unserved, st.MaxQueue, st.SimTime, st.Phases, st.Hash)
		steps += st.Steps
	}
	ss := o.serverStats
	fmt.Printf("rounds=%d exec=%d idle=%d steps=%d merged-rounds=%d forced-merges=%d band-overlaps=%d\n",
		ss.Rounds, ss.ExecRounds, ss.IdleRounds, steps, ss.MergedRounds, ss.ForcedMerges, ss.BandOverlaps)
	if o.server.Interconnect() == serve.MOT2D {
		fmt.Printf("interconnect=%v side=%d (per-shard 2D mesh of trees)\n",
			o.server.Interconnect(), o.server.Side())
	}
	if o.elapsed > 0 {
		fmt.Printf("wall=%v (%.0f steps/sec)\n", o.elapsed.Round(time.Millisecond),
			float64(steps)/o.elapsed.Seconds())
	}
	fmt.Printf("final store fingerprint: %016x\n", o.fingerprint)
}

func writeMetrics(o *outcome, path string) error {
	var reg prom.Registry
	o.server.Metrics(&reg)
	if path == "-" {
		_, err := reg.WriteTo(os.Stdout)
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := reg.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("serve run", flag.ExitOnError)
	sf := addShared(fs)
	tenants := fs.String("tenants", "uniform,uniform", "tenant mix spec (see package doc)")
	arrival := fs.String("arrival", "closed:2", "arrival process: closed:W or open:PERIOD:BURST[:ON:OFF]")
	check := fs.Bool("check", false, "run the mix twice; fail unless hashes and fingerprint repeat")
	metrics := fs.String("metrics", "", "write final Prometheus text exposition to FILE (- = stdout)")
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
	mk := func() (serve.Config, error) {
		tcs, err := parseTenants(*tenants, sf, arr)
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
		if sf.verbose {
			cfg.Logf = log.New(os.Stderr, "serve: ", 0).Printf
		}
		return cfg, nil
	}
	cfg, err := mk()
	if err != nil {
		return err
	}
	o, err := execute(cfg, sf.rounds)
	if err != nil {
		return err
	}
	printSummary(o)
	if *metrics != "" {
		if err := writeMetrics(o, *metrics); err != nil {
			return err
		}
	}
	if *check {
		cfg2, err := mk() // fresh sources: factories hold per-run state
		if err != nil {
			return err
		}
		o2, err := execute(cfg2, sf.rounds)
		if err != nil {
			return err
		}
		if o2.fingerprint != o.fingerprint {
			return fmt.Errorf("check: fingerprint %016x != %016x — serving run not reproducible",
				o2.fingerprint, o.fingerprint)
		}
		for i := range o.stats {
			a, b := o.stats[i], o2.stats[i]
			if a.Hash != b.Hash || a.Steps != b.Steps {
				return fmt.Errorf("check: tenant %s diverged (steps %d/%d, hash %x/%x)",
					a.Name, a.Steps, b.Steps, a.Hash, b.Hash)
			}
		}
		fmt.Printf("check: OK — %d tenants bit-for-bit reproducible at K=%d\n",
			len(o.stats), o.server.Engines())
	}
	return nil
}

func cmdLoadgen(args []string) error {
	fs := flag.NewFlagSet("serve loadgen", flag.ExitOnError)
	sf := addShared(fs)
	pattern := fs.String("pattern", "uniform", "traffic pattern: uniform, hotspot, broadcast, global")
	tenants := fs.Int("tenants", 4, "tenant count (one band each)")
	loop := fs.String("loop", "closed", "load loop: closed (window) or open (period/burst)")
	window := fs.Int("window", 4, "closed-loop: credits kept outstanding per tenant")
	period := fs.Int("period", 1, "open-loop: rounds between bursts")
	burst := fs.Int("burst", 2, "open-loop: credits per burst")
	on := fs.Int("on", 0, "open-loop: rounds of bursting per on/off cycle (0 = always on)")
	off := fs.Int("off", 0, "open-loop: silent rounds per on/off cycle")
	if err := fs.Parse(args); err != nil {
		return err
	}
	mode, err := parseMode(sf.mode)
	if err != nil {
		return err
	}
	var arr serve.Arrival
	switch *loop {
	case "closed":
		arr = serve.Arrival{Window: *window}
	case "open":
		arr = serve.Arrival{Period: *period, Burst: *burst, On: *on, Off: *off}
	default:
		return fmt.Errorf("unknown -loop %q (want closed or open)", *loop)
	}
	if *tenants < 1 {
		return fmt.Errorf("-tenants %d < 1", *tenants)
	}
	if sf.rounds < 1 {
		return fmt.Errorf("-rounds %d < 1 (loadgen sources are unbounded; run-to-exhaustion is a `serve run` mode)", sf.rounds)
	}
	global := *pattern == "global"
	var pat replay.Pattern
	if !global {
		if pat, err = replay.ParsePattern(*pattern); err != nil {
			return err
		}
	}
	cfg := serve.Config{
		Engines: sf.engines, Workers: sf.workers,
		Mode: mode, Seed: sf.seed, QueueCap: sf.queue,
	}
	if err := sf.applyShared(&cfg); err != nil {
		return err
	}
	if sf.verbose {
		cfg.Logf = log.New(os.Stderr, "serve: ", 0).Printf
	}
	for i := 0; i < *tenants; i++ {
		tc := serve.TenantConfig{
			Name:    fmt.Sprintf("gen%d", i),
			Band:    i,
			Procs:   sf.procs,
			Arrival: arr,
		}
		if global {
			tc.Source = serve.NewGlobalPatternSource(replay.Uniform, sf.procs, 0, sf.wseed+int64(i))
		} else {
			tc.Source = serve.NewPatternSource(pat, sf.procs, 0, sf.wseed+int64(i))
		}
		cfg.Tenants = append(cfg.Tenants, tc)
	}
	o, err := execute(cfg, sf.rounds)
	if err != nil {
		return err
	}
	printSummary(o)
	var submitted, rejected int64
	for _, st := range o.stats {
		submitted += st.Submitted
		rejected += st.Rejected
	}
	if rejected > 0 {
		fmt.Printf("rejection rate: %.1f%% (open-loop backpressure)\n",
			100*float64(rejected)/float64(submitted))
	}
	return nil
}
