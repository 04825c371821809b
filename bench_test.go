// Benchmarks, one family per experiment of `go run ./cmd/experiments`,
// plus micro-benchmarks of the substrates. This file is the repo's only
// benchmark fixture table: `go run ./cmd/bench` records it into a
// BENCH_<date>.json snapshot. Run it directly with:
//
//	go test -run '^$' -bench . -benchmem
//
// The E-family benchmarks measure SIMULATOR throughput (wall time per
// simulated P-RAM step); the simulated-time results themselves are
// regenerated by `go run ./cmd/experiments`. Step benchmarks also report
// the simulated costs of one step as the metrics sim-time, sim-phases,
// sim-cycles and sim-copies, which snapshots record.
package pramsim_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"testing"

	pramsim "repro"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gf"
	"repro/internal/hashsim"
	"repro/internal/ida"
	"repro/internal/lowerbound"
	"repro/internal/memmap"
	"repro/internal/model"
	"repro/internal/mot"
	"repro/internal/mpc"
	"repro/internal/quorum"
	"repro/internal/replay"
	"repro/internal/serve"
	"repro/internal/vlsi"
	"repro/internal/workloads"
)

// permBatch builds the canonical full permutation read step.
func permBatch(n int, seed int64) model.Batch {
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	batch := model.NewBatch(n)
	for i := 0; i < n; i++ {
		batch[i] = model.Request{Proc: i, Op: model.OpRead, Addr: perm[i]}
	}
	return batch
}

// benchOp times op after one untimed call, which grows the arenas op
// reuses so that the loop measures the steady state: 0 allocs/op on every
// zero-alloc hot path, at any b.N. It then reports that call's simulated
// costs.
func benchOp(b *testing.B, op func() model.StepReport) {
	rep := op()
	if rep.Err != nil {
		b.Fatal(rep.Err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := op(); r.Err != nil {
			b.Fatal(r.Err)
		}
	}
	reportSim(b, rep)
}

// reportSim reports a step's nonzero simulated costs. It must run after
// the timed loop: b.ResetTimer drops metrics reported before it.
func reportSim(b *testing.B, rep model.StepReport) {
	for _, m := range []struct {
		v    int64
		unit string
	}{
		{rep.Time, "sim-time"},
		{int64(rep.Phases), "sim-phases"},
		{rep.NetworkCycles, "sim-cycles"},
		{rep.CopyAccesses, "sim-copies"},
	} {
		if m.v != 0 {
			b.ReportMetric(float64(m.v), m.unit)
		}
	}
}

// benchStep times one backend step on batch.
func benchStep(b *testing.B, back model.Backend, batch model.Batch) {
	benchOp(b, func() model.StepReport { return back.ExecuteStep(batch) })
}

// benchWriteBatch times one quorum engine batch in which each of n
// processors writes its own variable.
func benchWriteBatch(b *testing.B, eng *quorum.Engine, n int) {
	reqs := make([]quorum.Request, n)
	for i := range reqs {
		reqs[i] = quorum.Request{Proc: i, Var: i, Write: true, Value: 1}
	}
	benchOp(b, func() model.StepReport {
		if eng.ExecuteBatch(reqs).Stalled {
			b.Fatal("stalled")
		}
		return model.StepReport{}
	})
}

// benchServe times one serving round over a closed-loop banded mix of
// uniform tenants with procs processors each, one band per tenant; cfg
// sets the rest of the deployment. A round must schedule min(tenants,
// cfg.Engines) tenant steps. Uniform draws vary the batch shapes, so 16
// untimed rounds grow the arenas; the steady state must stay at 0
// allocs/op. It returns the server for checks after the loop.
func benchServe(b *testing.B, cfg serve.Config, tenants, procs int) *serve.Server {
	cfg.Bands, cfg.Seed = tenants, 7
	for i := 0; i < tenants; i++ {
		cfg.Tenants = append(cfg.Tenants, serve.TenantConfig{
			Name: fmt.Sprintf("g%d", i), Band: i, Procs: procs,
			Arrival: serve.Arrival{Window: 2},
			Source:  serve.NewPatternSource(replay.Uniform, procs, 0, int64(100+i)),
		})
	}
	s, err := serve.NewServer(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	want := min(tenants, cfg.Engines)
	for i := 0; i < 16; i++ {
		s.Round()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Round() != want {
			b.Fatal("serving round under-scheduled")
		}
	}
	return s
}

// --- E1: Theorem 1 lower bound -----------------------------------------

func BenchmarkE1LowerBoundAdversary(b *testing.B) {
	p := memmap.LemmaTwo(256, 2, 1)
	mp := memmap.Generate(p, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conc := lowerbound.FindConcentrated(mp, 256)
		if conc.Modules == 0 {
			b.Fatal("adversary degenerate")
		}
	}
}

// --- E2: Lemma 2 expansion audit ----------------------------------------

func BenchmarkE2ExpansionAudit(b *testing.B) {
	for _, n := range []int{256, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			p := memmap.LemmaTwo(n, 2, 1)
			mp := memmap.Generate(p, 11)
			q := p.N / p.R()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := mp.Audit(q, 10, int64(i))
				if !res.Holds {
					b.Fatal("expansion violated")
				}
			}
		})
	}
}

// --- E3: Theorem 2, DMMPC step ------------------------------------------

func BenchmarkE3DMMPCStep(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchStep(b, core.NewDMMPC(n, core.Config{}), permBatch(n, 5))
		})
	}
}

// hotspotBatches returns the 256 pre-generated steps of the E3 hotspot
// benchmarks for an n-processor machine over mem cells.
func hotspotBatches(n, mem int) []model.Batch {
	gen := replay.NewGenerator(replay.Hotspot, 1, n, mem, 1)
	batches := make([]model.Batch, 256)
	for i := range batches {
		batches[i] = slices.Clone(gen.Step(i)[0])
	}
	return batches
}

// BenchmarkE3DMMPCStepHotspot is E3 in the memory-bound regime of
// prambench's hotspot-dmmpc: CRCW-Priority steps with 85% of accesses on
// 16 hot cells and the rest spread over all n² cells, so the dedup front
// end leaves ~170 requests whose cold map and store rows miss the caches.
// The engine's warm pass (see quorum.Engine) loads those rows back to back
// before the first phase, so their misses overlap instead of stalling the
// phase loop one at a time. A fixed set of pre-generated batches is
// replayed in turn; reads and writes alternate. E3DMMPCBodyHotspot is the
// same steps without the dedup front end.
func BenchmarkE3DMMPCStepHotspot(b *testing.B) {
	for _, n := range []int{1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			dm := core.NewDMMPC(n, core.Config{Mode: model.CRCWPriority})
			batches := hotspotBatches(n, dm.MemSize())
			for _, batch := range batches { // grow the arenas to every batch's shape
				dm.ExecuteStep(batch)
			}
			b.ReportAllocs() // steady state must stay at 0 allocs/op
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rep := dm.ExecuteStep(batches[i%len(batches)]); rep.Err != nil {
					b.Fatal(rep.Err)
				}
			}
		})
	}
}

// dedupCapture is a StepSink that deep-copies every step it sees: the
// step it is handed aliases machine scratch.
type dedupCapture struct{ steps []quorum.DedupStep }

func (c *dedupCapture) RecordStep(_ int, s quorum.DedupStep, _ model.StepReport) {
	c.steps = append(c.steps, quorum.DedupStep{
		Reads:       slices.Clone(s.Reads),
		ReaderOff:   slices.Clone(s.ReaderOff),
		ReaderProcs: slices.Clone(s.ReaderProcs),
		Writes:      slices.Clone(s.Writes),
	})
}

func (c *dedupCapture) RecordLoad(int, model.Addr, []model.Word) {}

func (c *dedupCapture) StepBarrier() {}

// BenchmarkE3DMMPCBodyHotspot is the step body alone on
// E3DMMPCStepHotspot's batches: the same 256 steps, captured in post-dedup
// form through a StepSink, each run by Machine.ExecuteDedupStep in turn.
// E3DMMPCStepHotspot minus this point is the dedup front end.
func BenchmarkE3DMMPCBodyHotspot(b *testing.B) {
	for _, n := range []int{1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			dm := core.NewDMMPC(n, core.Config{Mode: model.CRCWPriority})
			var capture dedupCapture
			dm.SetStepSink(&capture, 0)
			for _, batch := range hotspotBatches(n, dm.MemSize()) {
				dm.ExecuteStep(batch)
			}
			dm.SetStepSink(nil, 0)
			steps := capture.steps
			for _, s := range steps { // warm up on the body path itself
				dm.ExecuteDedupStep(s)
			}
			b.ReportAllocs() // steady state must stay at 0 allocs/op
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rep := dm.ExecuteDedupStep(steps[i%len(steps)]); rep.Err != nil {
					b.Fatal(rep.Err)
				}
			}
		})
	}
}

// --- E4: UW'87 MPC baseline step ----------------------------------------

func BenchmarkE4MPCStep(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchStep(b, mpc.New(n, mpc.Config{}), permBatch(n, 5))
		})
	}
}

// --- E5: Theorem 3, 2DMOT step (and the Luccio'90 baseline) --------------

// BenchmarkE5MOT2DStep steps the Theorem 3 machine on a permutation read.
// From n=1024 on, K=1.5 keeps the memory map light and δ pins the grid
// side at mot.MaxSide (16384), the largest the router's 32-bit dense edge
// ids allow: the production sizes.
func BenchmarkE5MOT2DStep(b *testing.B) {
	for _, c := range []struct {
		n   int
		cfg core.MOTConfig
	}{
		{16, core.MOTConfig{}},
		{64, core.MOTConfig{}},
		{256, core.MOTConfig{}},
		{1024, core.MOTConfig{K: 1.5, Delta: 1.8}},
		{4096, core.MOTConfig{K: 1.5, Delta: 1.333}},
	} {
		b.Run(fmt.Sprintf("n=%d", c.n), func(b *testing.B) {
			benchStep(b, core.NewMOT2D(c.n, c.cfg), permBatch(c.n, 5))
		})
	}
}

func BenchmarkE5LuccioStep(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchStep(b, core.NewLuccio(n, core.MOTConfig{}), permBatch(n, 5))
		})
	}
}

// --- E12: multi-engine pool serving K programs in lockstep rounds ---------

// benchBandPool times one round of the E12 pool — the module census and K
// shard steps in shard order, all on one goroutine. The pool serves a
// Lemma 2 image for 1024 processors as K band-local programs of 1024/K
// processors on K engines. Each shard reads a permutation of its own
// variable band, which the banded map turns into K disjoint module
// components; one generator draws every shard's permutation, in shard
// order. The round's simulated cost is its makespan (the slowest shard's
// time and phases) and its work the shards' summed copy accesses.
func benchBandPool(b *testing.B, K int) {
	const nTotal = 1024
	built, err := core.Spec{Kind: core.KindDMMPC, Lanes: K, Procs: nTotal / K}.BuildPool(K)
	if err != nil {
		b.Fatal(err)
	}
	dp := built.Pool
	n, mem := dp.ShardProcs(), dp.Store().Map().Vars()
	rng := rand.New(rand.NewSource(5))
	batches := make([]model.Batch, K)
	for sh := range batches {
		lo, _ := memmap.BandRange(sh, mem, K)
		perm := rng.Perm(n)
		batch := model.NewBatch(n)
		for i := 0; i < n; i++ {
			batch[i] = model.Request{Proc: i, Op: model.OpRead, Addr: lo + perm[i]}
		}
		batches[sh] = batch
	}
	benchOp(b, func() model.StepReport {
		var round model.StepReport
		for _, rep := range dp.ExecuteSteps(batches) {
			if rep.Err != nil {
				return rep
			}
			round.Time = max(round.Time, rep.Time)
			round.Phases = max(round.Phases, rep.Phases)
			round.CopyAccesses += rep.CopyAccesses
		}
		return round
	})
}

// BenchmarkE12PoolStep: the same aggregate workload (1024 processors, one
// band-local permutation read each) served as K independent programs by K
// engines over one banded, module-sharded memory image. Execution is
// bit-for-bit identical at every K (pool differential tests), and every
// round runs on one goroutine, so the sweep measures the per-shard and
// census overhead of splitting one workload K ways, not scaling.
func BenchmarkE12PoolStep(b *testing.B) {
	for _, K := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("n=1024/K=%d", K), func(b *testing.B) {
			benchBandPool(b, K)
		})
	}
}

// --- E13: trace replay straight into the engine ---------------------------

// e13Points are the E13 machines: the E5 production shapes in
// CRCW-Priority mode, each recorded for a few steps of a permutation read.
var e13Points = []struct {
	n     int
	delta float64
	steps int
}{{1024, 1.8, 4}, {4096, 1.333, 3}}

// buildE13 builds the E13 machine for n processors at grid exponent delta.
func buildE13(b *testing.B, n int, delta float64) *core.Built {
	built, err := core.Spec{Kind: core.KindMOT2D, Lanes: 1, Procs: n,
		Mode: model.CRCWPriority, KExp: 1.5, Gran: delta}.Build()
	if err != nil {
		b.Fatal(err)
	}
	return built
}

// BenchmarkE13LiveStep: the E13 machine's full ExecuteStep front end, the
// live counterpart of E13ReplayStep.
func BenchmarkE13LiveStep(b *testing.B) {
	for _, c := range e13Points {
		b.Run(fmt.Sprintf("n=%d", c.n), func(b *testing.B) {
			benchStep(b, buildE13(b, c.n, c.delta).Machine, permBatch(c.n, 5))
		})
	}
}

// BenchmarkE13ReplayStep: one replayed step — trace-frame decode plus
// ExecuteDedupStep, rewinding the in-memory trace at end of file — of a
// short recording on the E13 machine. Replay pays machine construction
// once per trace file instead of once per sweep point.
func BenchmarkE13ReplayStep(b *testing.B) {
	for _, c := range e13Points {
		b.Run(fmt.Sprintf("n=%d", c.n), func(b *testing.B) {
			built := buildE13(b, c.n, c.delta)
			var buf bytes.Buffer
			rec, err := replay.NewRecorder(&buf, built)
			if err != nil {
				b.Fatal(err)
			}
			batch := permBatch(c.n, 5)
			for s := 0; s < c.steps; s++ {
				if rep := built.Machine.ExecuteStep(batch); rep.Err != nil {
					b.Fatal(rep.Err)
				}
			}
			if err := rec.Close(); err != nil {
				b.Fatal(err)
			}
			rd := bytes.NewReader(buf.Bytes())
			rp, err := replay.Open(rd)
			if err != nil {
				b.Fatal(err)
			}
			step := func() model.StepReport {
				for {
					_, rep, err := rp.Step()
					if err == nil {
						return rep
					}
					if err != io.EOF {
						b.Fatal(err)
					}
					rd.Seek(0, io.SeekStart)
					if err := rp.Reset(rd); err != nil {
						b.Fatal(err)
					}
				}
			}
			for s := 0; s < c.steps; s++ { // with benchOp's untimed step, warm across a rewind
				step()
			}
			benchOp(b, step)
		})
	}
}

// --- E14: multi-tenant serving rounds ------------------------------------

// BenchmarkE14ServeStep: one steady-state serving round of the
// internal/serve front end — admission, band-aware scheduling, generator
// fill, pool round, accounting — on a closed-loop banded mix of T tenants
// over K = T engines.
func BenchmarkE14ServeStep(b *testing.B) {
	for _, c := range []struct{ tenants, procs int }{{2, 32}, {4, 64}} {
		b.Run(fmt.Sprintf("T=%d/K=%d", c.tenants, c.tenants), func(b *testing.B) {
			benchServe(b, serve.Config{Engines: c.tenants}, c.tenants, c.procs)
		})
	}
}

// BenchmarkE14ServeStepMOT2D: the T=2/K=2 round with per-shard 2DMOT
// meshes behind the pool (2 × 64 procs → a 512-side grid per engine).
func BenchmarkE14ServeStepMOT2D(b *testing.B) {
	b.Run("T=2/K=2", func(b *testing.B) {
		benchServe(b, serve.Config{Engines: 2, Interconnect: core.KindMOT2D}, 2, 64)
	})
}

// BenchmarkE14ServeStepSpans: the T=2/K=2 round with a deliberately tiny
// event ring (depth 64), so every round overwrites — proving event
// recording rides the hot path at 0 allocs/op on the overwrite path too.
func BenchmarkE14ServeStepSpans(b *testing.B) {
	b.Run("T=2/K=2", func(b *testing.B) {
		s := benchServe(b, serve.Config{Engines: 2, EventDepth: 64}, 2, 32)
		if s.Events().Dropped() == 0 {
			b.Fatal("event ring never wrapped — depth 64 no longer exercises the overwrite path")
		}
	})
}

// BenchmarkE14ServeThroughput sweeps one 8-tenant closed-loop mix (8 × 128
// simulated processors, band-local uniform traffic) over K engines; a
// round runs min(8, K) tenant steps on one goroutine. Per-tenant results
// are bit-for-bit identical at every K (serve differential tests), so the
// sweep measures per-round scheduling and census overhead against the
// steps a round carries, like E12 one layer down, not scaling.
func BenchmarkE14ServeThroughput(b *testing.B) {
	const tenants, procs = 8, 128
	for _, K := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("n=%d/K=%d", tenants*procs, K), func(b *testing.B) {
			benchServe(b, serve.Config{Engines: K}, tenants, procs)
		})
	}
}

// --- E6: cross-scheme comparison (hashing both regimes) ------------------

func BenchmarkE6HashedRandomStep(b *testing.B) {
	const n = 256
	benchStep(b, hashsim.New(n, hashsim.Config{}), permBatch(n, 5))
}

func BenchmarkE6HashedAdversarialStep(b *testing.B) {
	const n = 256
	hm := hashsim.New(n, hashsim.Config{})
	benchStep(b, hm, hashsim.AdversarialBatch(hm.Hash(), n, hm.MemSize()))
}

// --- E7: Schuster IDA memory ---------------------------------------------

func BenchmarkE7IDAReadStep(b *testing.B) {
	for _, n := range []int{64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchStep(b, ida.NewMemory(n, ida.Config{MemCells: 4096}), permBatch(n, 5))
		})
	}
}

func BenchmarkE7IDADispersal(b *testing.B) {
	dp := ida.NewDispersal(10, 20)
	block := make(gf.Vec, 10)
	for i := range block {
		block[i] = gf.Elem(i * 31 % gf.P)
	}
	idxs := []int{0, 2, 4, 6, 8, 10, 12, 14, 16, 18}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shares := dp.Encode(nil, block)
		sub := make(gf.Vec, 10)
		for j, ix := range idxs {
			sub[j] = shares[ix]
		}
		out := dp.Decode(nil, idxs, sub)
		if out[0] != block[0] {
			b.Fatal("roundtrip failed")
		}
	}
}

// --- E8: VLSI area model ---------------------------------------------------

func BenchmarkE8AreaModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n := 1 << 12
		m := n * n
		if !vlsi.IsAreaLinear(m, vlsi.AreaOptimalGranule(n), 7, 3) {
			b.Fatal("area claim violated")
		}
	}
}

// --- substrate micro-benchmarks -------------------------------------------

func BenchmarkMemmapGenerate(b *testing.B) {
	p := memmap.LemmaTwo(256, 2, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		memmap.Generate(p, int64(i))
	}
}

func BenchmarkQuorumWriteBatch(b *testing.B) {
	const n = 256
	b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
		st := quorum.NewStore(memmap.Generate(memmap.LemmaTwo(n, 2, 1), 11))
		benchWriteBatch(b, quorum.NewEngine(st, quorum.NewCompleteBipartite(), n), n)
	})
}

func BenchmarkMOTNetworkPhase(b *testing.B) {
	const side = 1024
	b.Run(fmt.Sprintf("side=%d", side), func(b *testing.B) {
		nw := mot.NewNetwork(side, mot.ModulesAtLeaves, mot.Config{})
		attempts := make([]quorum.Attempt, 256)
		for i := range attempts {
			attempts[i] = quorum.Attempt{Proc: i, Module: (i * 37) % side, Var: i, Copy: 0}
		}
		benchOp(b, func() model.StepReport {
			nw.RoutePhase(attempts)
			return model.StepReport{}
		})
	})
}

func BenchmarkGFInterpolation(b *testing.B) {
	xs := make(gf.Vec, 16)
	ys := make(gf.Vec, 16)
	for i := range xs {
		xs[i] = gf.Elem(i + 1)
		ys[i] = gf.Elem((i*i + 7) % gf.P)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gf.SolveVandermonde(nil, xs, ys)
	}
}

// --- end-to-end program benchmarks ----------------------------------------

func BenchmarkProgramPrefixSumIdeal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := workloads.PrefixSum(64, 42)
		back := pramsim.NewIdeal(w.Procs, w.Cells, w.Mode)
		if _, err := pramsim.RunWorkload(w, back); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProgramPrefixSumDMMPC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := workloads.PrefixSum(64, 42)
		back := pramsim.NewDMMPC(w.Procs, pramsim.DMMPCConfig{Mode: w.Mode})
		if _, err := pramsim.RunWorkload(w, back); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProgramBitonicSortIdeal runs whole n=1024 bitonic sorts (220
// EREW steps each) on the ideal P-RAM, so its ns/step is almost all program
// coordinator.
func BenchmarkProgramBitonicSortIdeal(b *testing.B) {
	benchBitonicSort(b, pramsim.NewIdeal(1024, 1024, pramsim.EREW))
}

// BenchmarkProgramBitonicSortDMMPC is the same sort on the paper's Theorem 2
// machine: the shape of prambench's sort-dmmpc workload.
func BenchmarkProgramBitonicSortDMMPC(b *testing.B) {
	benchBitonicSort(b, pramsim.NewDMMPC(1024, pramsim.DMMPCConfig{Mode: pramsim.EREW}))
}

// benchBitonicSort runs a fresh n=1024 bitonic sort per iteration on back,
// built once by the caller, and reports the cost per P-RAM step.
func benchBitonicSort(b *testing.B, back pramsim.Backend) {
	b.ReportAllocs()
	b.ResetTimer()
	var steps int64
	for i := 0; i < b.N; i++ {
		rep, err := pramsim.RunWorkload(workloads.BitonicSort(1024, 42), back)
		if err != nil {
			b.Fatal(err)
		}
		steps += rep.Steps
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
}

// BenchmarkProgramReadEveryStepIdeal runs 1024 processors that Read at
// each of 220 steps, so none ever has a Write or Sync queued: the
// coordinator resumes every processor at every step, the worst case for
// its action queues.
func BenchmarkProgramReadEveryStepIdeal(b *testing.B) {
	const n = 1024
	back := pramsim.NewIdeal(n, n, pramsim.EREW)
	b.ReportAllocs()
	b.ResetTimer()
	var steps int64
	for i := 0; i < b.N; i++ {
		rep := pramsim.Run(back, func(p *pramsim.Proc) {
			for s := 0; s < 220; s++ {
				p.Read(p.ID())
			}
		})
		if err := rep.Err(); err != nil {
			b.Fatal(err)
		}
		steps += rep.Steps
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
}

// --- ablation benchmarks (the design choices experiment e10 compares) ------

// AblationMOTPolicy: the paper's drop-and-retry collision rule vs pure
// store-and-forward queueing on the same permutation step.
func BenchmarkAblationMOTPolicy(b *testing.B) {
	for _, pol := range []struct {
		name string
		p    mot.Policy
	}{{"drop", mot.DropOnCollision}, {"queue", mot.QueueOnCollision}} {
		b.Run(pol.name, func(b *testing.B) {
			benchStep(b, core.NewMOT2D(64, core.MOTConfig{Policy: pol.p}), permBatch(64, 5))
		})
	}
}

// AblationDualRail: Theorem 3's closing remark (rows+columns as banks)
// against the plain column-rail machine.
func BenchmarkAblationDualRail(b *testing.B) {
	for _, dr := range []struct {
		name string
		on   bool
	}{{"single", false}, {"dual", true}} {
		b.Run(dr.name, func(b *testing.B) {
			benchStep(b, core.NewMOT2D(64, core.MOTConfig{DualRail: dr.on}), permBatch(64, 5))
		})
	}
}

// AblationAlgebraicMap: the conclusion's computable-map conjecture — a
// linear-congruential map against the stored random table, same protocol.
func BenchmarkAblationAlgebraicMap(b *testing.B) {
	const n = 256
	p := memmap.LemmaTwo(n, 2, 1)
	for _, mk := range []struct {
		name string
		mp   *memmap.Map
	}{{"random", memmap.Generate(p, 11)}, {"algebraic", memmap.GenerateAlgebraic(p, 11)}} {
		b.Run(mk.name, func(b *testing.B) {
			benchWriteBatch(b, quorum.NewEngine(quorum.NewStore(mk.mp), quorum.NewCompleteBipartite(), n), n)
		})
	}
}

// AblationModuleBandwidth: how per-phase module bandwidth (the stage-2
// pipelining knob) changes the DMMPC's phase count.
func BenchmarkAblationModuleBandwidth(b *testing.B) {
	const n = 256
	for _, bw := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("bw=%d", bw), func(b *testing.B) {
			st := quorum.NewStore(memmap.Generate(memmap.LemmaTwo(n, 2, 1), 11))
			benchWriteBatch(b, quorum.NewEngine(st, &quorum.CompleteBipartite{Bandwidth: bw, PhaseCost: 1}, n), n)
		})
	}
}

// AblationScheduler: plain round-robin vs the faithful UW'87 two-stage
// schedule on the same machine and batch.
func BenchmarkAblationScheduler(b *testing.B) {
	for _, ts := range []struct {
		name string
		on   bool
	}{{"roundrobin", false}, {"twostage", true}} {
		b.Run(ts.name, func(b *testing.B) {
			benchStep(b, core.NewDMMPC(256, core.Config{TwoStage: ts.on}), permBatch(256, 5))
		})
	}
}

// --- experiment harness smoke (kept out of -short runs) --------------------

func TestExperimentHarnessSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("heavyweight")
	}
	for _, id := range []string{"e1", "e8"} {
		if _, ok := experiments.Run(id); !ok {
			t.Fatalf("experiment %s missing", id)
		}
	}
}
