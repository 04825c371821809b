// Command bench runs the E-family benchmarks programmatically and emits a
// BENCH_<date>.json snapshot: wall-clock ns/op, allocs/op and B/op per
// benchmark, plus the simulated-time counters (phases, network cycles, copy
// accesses) of one representative step. The JSON seeds the repo's
// performance trajectory — successive PRs append snapshots and diff them.
//
// It also implements the snapshot-lineage regression gate (ROADMAP lane 4):
//
//	go run ./cmd/bench -diff [-out DIR] [-threshold 0.10]
//
// compares the newest two BENCH_<date>.json snapshots in DIR and exits
// non-zero if any benchmark that was allocation-free in the older snapshot
// started allocating or slowed down by more than the threshold.
//
// Usage:
//
//	go run ./cmd/bench [-out DIR] [-benchtime 1s] [-diff]
//	                   [-cpuprofile FILE] [-memprofile FILE]
//
// -cpuprofile / -memprofile write pprof profiles of the whole run, for
// drilling into a regression the snapshot lineage surfaced
// (`go tool pprof FILE`).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/mot"
	"repro/internal/mpc"
	"repro/internal/quorum"
	"repro/internal/replay"
	"repro/internal/serve"

	"repro/internal/memmap"
)

// Result is one benchmark measurement.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"nsPerOp"`
	AllocsPerOp int64   `json:"allocsPerOp"`
	BytesPerOp  int64   `json:"bytesPerOp"`
	// Simulated-time counters of one representative simulated step
	// (zero for micro-benchmarks without a step structure).
	SimTime       int64 `json:"simTime,omitempty"`
	SimPhases     int   `json:"simPhases,omitempty"`
	SimCycles     int64 `json:"simCycles,omitempty"`
	SimCopyAccess int64 `json:"simCopyAccesses,omitempty"`
}

// Snapshot is the emitted file layout. NumCPU and GOMAXPROCS describe the
// host shape the numbers were measured on: -diff compares ns/op only
// advisorily when the shape drifted between two snapshots (a 4-core
// runner and a 1-core container measure parallel sweeps incomparably),
// while allocation regressions stay hard failures — allocs/op is
// host-independent.
type Snapshot struct {
	Date       string `json:"date"`
	GoVersion  string `json:"goVersion"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"numCPU"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
	// Calibration is the minimum ns/op of a fixed pure-CPU reference loop
	// (calibrate), measured alongside the benchmarks. Core counts don't
	// capture how FAST a container is — the same image lands on hosts
	// whose scalar speed differs by tens of percent — so -diff divides
	// ns/op comparisons by the calibration ratio between two snapshots.
	// Snapshots predating the field compare advisorily (see diff.go).
	Calibration float64  `json:"calibrationNsPerOp,omitempty"`
	Results     []Result `json:"results"`
	// Baseline carries the pre-optimization (seed) numbers of the two
	// acceptance benchmarks for easy speedup computation.
	Baseline map[string]float64 `json:"baselineNsPerOp,omitempty"`
}

// seedBaseline records the seed-tree numbers measured before the
// zero-allocation hot-path rewrite (Xeon 2.10GHz, go1.24, -benchtime=2s).
var seedBaseline = map[string]float64{
	"E3DMMPCStep/n=1024": 1828312,
	"E5MOT2DStep/n=256":  13714533,
}

// e5Points are the E5MOT2DStep machines. From n=1024 on, K=1.5 keeps the
// memory map light and δ pins the grid side at mot.MaxSide (16384), the
// largest the router's 32-bit dense edge ids allow.
var e5Points = []struct {
	n   int
	cfg core.MOTConfig
}{
	{16, core.MOTConfig{}},
	{64, core.MOTConfig{}},
	{256, core.MOTConfig{}},
	{1024, core.MOTConfig{K: 1.5, Delta: 1.8}},
	{4096, core.MOTConfig{K: 1.5, Delta: 1.333}},
}

func permBatch(n int, seed int64) model.Batch {
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	batch := model.NewBatch(n)
	for i := 0; i < n; i++ {
		batch[i] = model.Request{Proc: i, Op: model.OpRead, Addr: perm[i]}
	}
	return batch
}

// poolBandBatches builds one permutation read step per engine, each inside
// its own variable band — the band-local traffic of K independent programs,
// which the banded map turns into K disjoint module components.
func poolBandBatches(dp *quorum.Pool, seed int64) []model.Batch {
	k, n, mem := dp.Engines(), dp.ShardProcs(), dp.Store().Map().Vars()
	rng := rand.New(rand.NewSource(seed))
	batches := make([]model.Batch, k)
	for sh := range batches {
		lo, _ := memmap.BandRange(sh, mem, k)
		perm := rng.Perm(n)
		b := model.NewBatch(n)
		for i := 0; i < n; i++ {
			b[i] = model.Request{Proc: i, Op: model.OpRead, Addr: lo + perm[i]}
		}
		batches[sh] = b
	}
	return batches
}

// snapshotDate renders a snapshot's lineage date in UTC: CI runners (UTC)
// and dev containers in other timezones must agree on what "today" is, or
// the BENCH_<date>.json lineage interleaves out of chronological order and
// -diff gates the wrong pair.
func snapshotDate(now time.Time) string { return now.UTC().Format("2006-01-02") }

// benchRuns is how many times each benchmark is repeated; the snapshot
// records the MINIMUM ns/op (and allocs) across repeats. On shared or
// virtualized hosts the distribution of a deterministic benchmark is the
// true cost plus one-sided noise bursts, so the minimum is the stable
// estimator — single-shot numbers swing ±30% and would trip the -diff
// regression gate on machine weather. Settable via -runs.
var benchRuns = 3

// measureMin repeats a benchmark body and keeps the best run.
func measureMin(name string, body func(b *testing.B)) Result {
	res := Result{Name: name}
	for run := 0; run < benchRuns; run++ {
		br := testing.Benchmark(body)
		if br.N == 0 {
			// b.Fatal inside testing.Benchmark yields a zero result instead
			// of aborting; don't let it corrupt the snapshot silently.
			fmt.Fprintf(os.Stderr, "benchmark %s failed (see error above)\n", name)
			os.Exit(1)
		}
		if run == 0 || float64(br.NsPerOp()) < res.NsPerOp {
			res.Iterations = br.N
			res.NsPerOp = float64(br.NsPerOp())
			res.AllocsPerOp = br.AllocsPerOp()
			res.BytesPerOp = br.AllocedBytesPerOp()
		}
	}
	return res
}

// measure runs a backend step benchmark and captures one representative
// simulated-cost report alongside the wall-clock minimum.
func measure(name string, back model.Backend, batch model.Batch) Result {
	rep := back.ExecuteStep(batch) // warm the arenas; grab sim counters
	res := measureMin(name, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if r := back.ExecuteStep(batch); r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	})
	res.SimTime = rep.Time
	res.SimPhases = rep.Phases
	res.SimCycles = rep.NetworkCycles
	res.SimCopyAccess = rep.CopyAccesses
	return res
}

// measurePool runs a multi-engine pool benchmark: one op is a full
// ExecuteSteps — K concurrent shard steps plus the deterministic report
// merge — with sim counters from the aggregate report.
func measurePool(name string, dp *quorum.Pool, batches []model.Batch) Result {
	agg, _ := dp.ExecuteSteps(batches) // warm the arenas; grab sim counters
	if agg.Err != nil {
		fmt.Fprintf(os.Stderr, "benchmark %s: %v\n", name, agg.Err)
		os.Exit(1)
	}
	res := measureMin(name, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if agg, _ := dp.ExecuteSteps(batches); agg.Err != nil {
				b.Fatal(agg.Err)
			}
		}
	})
	res.SimTime = agg.Time
	res.SimPhases = agg.Phases
	res.SimCycles = agg.NetworkCycles
	res.SimCopyAccess = agg.CopyAccesses
	return res
}

// calibrationSink keeps the calibration loop's result observable so the
// compiler cannot delete the loop.
var calibrationSink uint64

// calibrate measures the host's scalar speed: a fixed 32768-round mix64
// loop, pure ALU work with no memory traffic, repeated benchRuns times
// with the minimum kept (same estimator as every other snapshot number).
// The result anchors cross-snapshot ns/op comparisons to the machine the
// numbers were taken on.
func calibrate() float64 {
	return measureMin("calibration", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			x := uint64(0x9E3779B97F4A7C15)
			for j := 0; j < 1<<15; j++ {
				x ^= x >> 33
				x *= 0xFF51AFD7ED558CCD
				x ^= x >> 29
			}
			calibrationSink = x
		}
	}).NsPerOp
}

// measureMicro runs a plain function benchmark.
func measureMicro(name string, fn func()) Result {
	fn() // warm the arenas
	return measureMin(name, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fn()
		}
	})
}

func main() {
	testing.Init() // register test.* flags so test.benchtime is settable
	out := flag.String("out", ".", "directory for the BENCH_<date>.json snapshot")
	benchtime := flag.Duration("benchtime", time.Second, "target duration per benchmark")
	diff := flag.Bool("diff", false, "compare the newest two snapshots in -out and exit 1 on zero-alloc regressions")
	threshold := flag.Float64("threshold", 0.10, "ns/op regression tolerance for -diff (0.10 = 10%)")
	runs := flag.Int("runs", benchRuns, "repeats per benchmark; the minimum is recorded")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the whole benchmark run to FILE")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile (post-GC) to FILE after the run")
	flag.Parse()
	if *runs > 0 {
		benchRuns = *runs
	}
	if *diff {
		os.Exit(runDiff(*out, *threshold))
	}
	if err := flag.Set("test.benchtime", benchtime.String()); err != nil {
		fmt.Fprintln(os.Stderr, "benchtime:", err)
		os.Exit(1)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Println("wrote CPU profile", *cpuprofile)
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				os.Exit(1)
			}
			runtime.GC() // report the retained heap, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				os.Exit(1)
			}
			f.Close()
			fmt.Println("wrote heap profile", *memprofile)
		}()
	}

	snap := Snapshot{
		Date:        snapshotDate(time.Now()),
		GoVersion:   runtime.Version(),
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Calibration: calibrate(),
		Baseline:    seedBaseline,
	}
	fmt.Printf("host calibration: %.0f ns/op\n", snap.Calibration)

	for _, n := range []int{64, 256, 1024} {
		dm := core.NewDMMPC(n, core.Config{})
		snap.Results = append(snap.Results,
			measure(fmt.Sprintf("E3DMMPCStep/n=%d", n), dm, permBatch(n, 5)))
	}
	for _, n := range []int{64, 256, 1024} {
		m := mpc.New(n, mpc.Config{})
		snap.Results = append(snap.Results,
			measure(fmt.Sprintf("E4MPCStep/n=%d", n), m, permBatch(n, 5)))
	}
	for _, c := range e5Points {
		mt := core.NewMOT2D(c.n, c.cfg)
		snap.Results = append(snap.Results,
			measure(fmt.Sprintf("E5MOT2DStep/n=%d", c.n), mt, permBatch(c.n, 5)))
	}
	for _, n := range []int{16, 64} {
		lu := core.NewLuccio(n, core.MOTConfig{})
		snap.Results = append(snap.Results,
			measure(fmt.Sprintf("E5LuccioStep/n=%d", n), lu, permBatch(n, 5)))
	}
	// Multi-engine pool throughput (E12): the SAME aggregate workload —
	// 1024 simulated processors issuing one permutation read each over a
	// Lemma 2 image for 1024 processors — served as K independent
	// band-local programs of 1024/K processors by K concurrent engines.
	// Execution is bit-for-bit identical at every K and worker count (pool
	// differential tests), so the sweep isolates serving throughput. The
	// K=4 Serial point re-measures the same pool with the executor forced
	// onto the caller goroutine.
	{
		const nTotal = 1024
		var speedup [2]float64
		for _, K := range []int{1, 2, 4, 8} {
			built, err := core.Spec{Kind: core.KindDMMPC, Lanes: K, Procs: nTotal / K}.BuildPool(K)
			if err != nil {
				fmt.Fprintln(os.Stderr, "E12 build:", err)
				os.Exit(1)
			}
			dp := built.Pool
			batches := poolBandBatches(dp, 5)
			res := measurePool(fmt.Sprintf("E12PoolStep/n=%d/K=%d", nTotal, K), dp, batches)
			snap.Results = append(snap.Results, res)
			if K == 1 {
				speedup[0] = res.NsPerOp
			}
			if K == 4 {
				speedup[1] = res.NsPerOp
				dp.SetWorkers(1)
				snap.Results = append(snap.Results,
					measurePool(fmt.Sprintf("E12PoolStepSerial/n=%d/K=%d", nTotal, K), dp, batches))
			}
		}
		fmt.Printf("E12 n=%d pool speedup K=4 vs K=1: %.2fx\n", nTotal, speedup[0]/speedup[1])
	}

	// E13: trace replay at production sizes (ROADMAP's "trace replay at
	// n ≥ 4096" lane). A short E5-shape permutation-read trace is recorded
	// once, then replayed straight into the engine: E13ReplayStep measures
	// one replayed step (frame decode + ExecuteDedupStep, rewinding at end
	// of file), E13LiveStep the same machine's full ExecuteStep front end
	// on the same batch. Replay additionally amortizes the machine
	// construction — paid once per trace instead of once per sweep point —
	// which is what makes the n=4096 family routine.
	for _, c := range []struct {
		n     int
		delta float64
		steps int
	}{{1024, 1.8, 4}, {4096, 1.333, 3}} {
		rcfg := core.Spec{Kind: core.KindMOT2D, Lanes: 1, Procs: c.n,
			Mode: model.CRCWPriority, KExp: 1.5, Gran: c.delta}
		constructStart := time.Now()
		built, err := rcfg.Build()
		if err != nil {
			fmt.Fprintln(os.Stderr, "E13 build:", err)
			os.Exit(1)
		}
		construct := time.Since(constructStart)
		var buf bytes.Buffer
		rec, err := replay.NewRecorder(&buf, built)
		if err != nil {
			fmt.Fprintln(os.Stderr, "E13 record:", err)
			os.Exit(1)
		}
		batch := permBatch(c.n, 5)
		for s := 0; s < c.steps; s++ {
			if rep := built.Machine.ExecuteStep(batch); rep.Err != nil {
				fmt.Fprintln(os.Stderr, "E13 record step:", rep.Err)
				os.Exit(1)
			}
		}
		if err := rec.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "E13 record close:", err)
			os.Exit(1)
		}
		live := measure(fmt.Sprintf("E13LiveStep/n=%d", c.n), built.Machine, batch)
		rd := bytes.NewReader(buf.Bytes())
		rp, err := replay.Open(rd)
		if err != nil {
			fmt.Fprintln(os.Stderr, "E13 open:", err)
			os.Exit(1)
		}
		step := func() {
			for {
				executed, err := rp.Step()
				if err != nil {
					fmt.Fprintln(os.Stderr, "E13 replay:", err)
					os.Exit(1)
				}
				if executed {
					return
				}
				rd.Seek(0, io.SeekStart)
				if err := rp.Reset(rd); err != nil {
					fmt.Fprintln(os.Stderr, "E13 rewind:", err)
					os.Exit(1)
				}
			}
		}
		for i := 0; i < c.steps+1; i++ { // warm arenas across a rewind
			step()
		}
		res := measureMin(fmt.Sprintf("E13ReplayStep/n=%d", c.n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
		// The replayed step IS the live step's simulation (bit-for-bit,
		// see internal/replay's differential tests): same sim counters.
		res.SimTime, res.SimPhases, res.SimCycles, res.SimCopyAccess =
			live.SimTime, live.SimPhases, live.SimCycles, live.SimCopyAccess
		snap.Results = append(snap.Results, live, res)
		fmt.Printf("E13 n=%d: replayed step %.2fx vs live step (%.1fms vs %.1fms); construction %v amortized per trace file\n",
			c.n, live.NsPerOp/res.NsPerOp, res.NsPerOp/1e6, live.NsPerOp/1e6, construct.Round(time.Millisecond))
	}

	// E14: multi-tenant serving rounds (the internal/serve front end over
	// the pool). One op is one serving round: admission, band-aware
	// round-robin scheduling, generator fill, pool execution, accounting —
	// min(T, K) tenant steps. E14ServeStep is the steady-state hot-path
	// point the zero-alloc gate tracks; E14ServeThroughput sweeps the SAME
	// 8-tenant closed-loop mix (8 × 128 simulated processors, band-local
	// uniform traffic) over K ∈ {1,2,4,8} engines — per-tenant results are
	// bit-for-bit identical at every K (serve differential tests), so the
	// sweep isolates serving throughput exactly like E12 one layer down.
	{
		mkServe := func(tenants, procs, K int) *serve.Server {
			cfg := serve.Config{Bands: tenants, Engines: K, Seed: 7}
			for i := 0; i < tenants; i++ {
				cfg.Tenants = append(cfg.Tenants, serve.TenantConfig{
					Name: fmt.Sprintf("g%d", i), Band: i, Procs: procs,
					Arrival: serve.Arrival{Window: 2},
					Source:  serve.NewPatternSource(replay.Uniform, procs, 0, int64(100+i)),
				})
			}
			s, err := serve.NewServer(cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "E14 build:", err)
				os.Exit(1)
			}
			return s
		}
		measureServe := func(name string, s *serve.Server, want int) Result {
			for i := 0; i < 16; i++ { // warm the arenas (uniform draws vary batch shape)
				s.Round()
			}
			return measureMin(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if s.Round() != want {
						b.Fatal("serving round under-scheduled")
					}
				}
			})
		}
		{
			s := mkServe(4, 64, 4)
			snap.Results = append(snap.Results, measureServe("E14ServeStep/T=4/K=4", s, 4))
			s.Close()
		}
		// The same steady-state point with a deliberately tiny event ring
		// (depth 64, so every round overwrites): event recording must ride
		// the serving hot path at 0 allocs/op even on the overwrite path.
		{
			cfg := serve.Config{Bands: 2, Engines: 2, Seed: 7, EventDepth: 64}
			for i := 0; i < 2; i++ {
				cfg.Tenants = append(cfg.Tenants, serve.TenantConfig{
					Name: fmt.Sprintf("g%d", i), Band: i, Procs: 32,
					Arrival: serve.Arrival{Window: 2},
					Source:  serve.NewPatternSource(replay.Uniform, 32, 0, int64(100+i)),
				})
			}
			s, err := serve.NewServer(cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "E14 spans build:", err)
				os.Exit(1)
			}
			snap.Results = append(snap.Results, measureServe("E14ServeStepSpans/T=2/K=2", s, 2))
			s.Close()
		}
		// The same steady-state point with per-shard 2DMOT meshes behind
		// the pool (2 × 64 procs → a 512-side grid per engine): tracks the
		// mesh-backed serving hot path's zero-alloc invariant in the
		// snapshot lineage.
		{
			cfg := serve.Config{Bands: 2, Engines: 2, Seed: 7, Interconnect: serve.MOT2D}
			for i := 0; i < 2; i++ {
				cfg.Tenants = append(cfg.Tenants, serve.TenantConfig{
					Name: fmt.Sprintf("g%d", i), Band: i, Procs: 64,
					Arrival: serve.Arrival{Window: 2},
					Source:  serve.NewPatternSource(replay.Uniform, 64, 0, int64(100+i)),
				})
			}
			s, err := serve.NewServer(cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "E14 mot2d build:", err)
				os.Exit(1)
			}
			snap.Results = append(snap.Results, measureServe("E14ServeStepMOT2D/T=2/K=2", s, 2))
			s.Close()
		}
		var speedup [2]float64
		for _, K := range []int{1, 2, 4, 8} {
			const tenants, procs = 8, 128
			s := mkServe(tenants, procs, K)
			want := tenants
			if K < tenants {
				want = K
			}
			res := measureServe(fmt.Sprintf("E14ServeThroughput/n=%d/K=%d", tenants*procs, K), s, want)
			perStep := res.NsPerOp / float64(want)
			if K == 1 {
				speedup[0] = perStep
			}
			if K == 4 {
				speedup[1] = perStep
			}
			snap.Results = append(snap.Results, res)
			s.Close()
		}
		fmt.Printf("E14 serving speedup per tenant step, K=4 vs K=1: %.2fx\n", speedup[0]/speedup[1])
	}

	// Substrate micro-benchmarks: the two zero-alloc hot paths.
	{
		const n = 256
		p := memmap.LemmaTwo(n, 2, 1)
		st := quorum.NewStore(memmap.Generate(p, 11))
		eng := quorum.NewEngine(st, quorum.NewCompleteBipartite(), n)
		reqs := make([]quorum.Request, n)
		for i := range reqs {
			reqs[i] = quorum.Request{Proc: i, Var: i, Write: true, Value: 1}
		}
		snap.Results = append(snap.Results, measureMicro("QuorumWriteBatch/n=256", func() {
			if eng.ExecuteBatch(reqs).Stalled {
				panic("stalled")
			}
		}))
	}
	{
		nw := mot.NewNetwork(1024, mot.ModulesAtLeaves, mot.Config{})
		attempts := make([]quorum.Attempt, 256)
		for i := range attempts {
			attempts[i] = quorum.Attempt{Proc: i, Module: (i * 37) % 1024, Var: i, Copy: 0}
		}
		snap.Results = append(snap.Results, measureMicro("MOTNetworkPhase/side=1024", func() {
			nw.RoutePhase(attempts)
		}))
	}

	path := snapshotPath(*out, snap.Date)
	data, err := json.MarshalIndent(snap, "", " ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "marshal:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "write:", err)
		os.Exit(1)
	}
	fmt.Println("wrote", path)
	for _, r := range snap.Results {
		line := fmt.Sprintf("%-28s %12.0f ns/op %8d allocs/op", r.Name, r.NsPerOp, r.AllocsPerOp)
		if base, ok := seedBaseline[r.Name]; ok {
			line += fmt.Sprintf("   %.2fx vs seed", base/r.NsPerOp)
		}
		fmt.Println(line)
	}
}
