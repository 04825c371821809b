// Benchmarks, one family per experiment in DESIGN.md §4 / EXPERIMENTS.md,
// plus micro-benchmarks of the substrates. Run:
//
//	go test -bench=. -benchmem
//
// The E-family benchmarks measure SIMULATOR throughput (wall time per
// simulated P-RAM step); the simulated-time results themselves are
// regenerated by `go run ./cmd/experiments`.
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
			dm := core.NewDMMPC(n, core.Config{})
			batch := permBatch(n, 5)
			b.ReportAllocs() // steady state must stay at 0 allocs/op
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep := dm.ExecuteStep(batch)
				if rep.Err != nil {
					b.Fatal(rep.Err)
				}
			}
		})
	}
}

// BenchmarkE3DMMPCStepHotspot is E3 in the memory-bound regime of
// prambench's hotspot-dmmpc: CRCW-Priority steps with 85% of accesses on
// 16 hot cells and the rest spread over all n² cells, so the dedup front
// end leaves ~170 requests whose cold rows miss the caches. A fixed set
// of pre-generated batches is replayed in turn; reads and writes
// alternate.
func BenchmarkE3DMMPCStepHotspot(b *testing.B) {
	for _, n := range []int{1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			dm := core.NewDMMPC(n, core.Config{Mode: model.CRCWPriority})
			gen := replay.NewGenerator(replay.Hotspot, 1, n, dm.MemSize(), 1)
			batches := make([]model.Batch, 256)
			for i := range batches {
				batches[i] = slices.Clone(gen.Step(i)[0])
			}
			for _, batch := range batches[:8] { // grow the arenas
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

// --- E4: UW'87 MPC baseline step ----------------------------------------

func BenchmarkE4MPCStep(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			m := mpc.New(n, mpc.Config{})
			batch := permBatch(n, 5)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep := m.ExecuteStep(batch)
				if rep.Err != nil {
					b.Fatal(rep.Err)
				}
			}
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
			mt := core.NewMOT2D(c.n, c.cfg)
			batch := permBatch(c.n, 5)
			mt.ExecuteStep(batch) // grow the arenas: the loop measures the steady state
			b.ReportAllocs()      // steady state must stay at 0 allocs/op
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep := mt.ExecuteStep(batch)
				if rep.Err != nil {
					b.Fatal(rep.Err)
				}
			}
		})
	}
}

func BenchmarkE5LuccioStep(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			lu := core.NewLuccio(n, core.MOTConfig{})
			batch := permBatch(n, 5)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep := lu.ExecuteStep(batch)
				if rep.Err != nil {
					b.Fatal(rep.Err)
				}
			}
		})
	}
}

// --- E12: multi-engine pool serving K programs concurrently ---------------

// BenchmarkE12PoolStep: the same aggregate workload (nTotal processors,
// one band-local permutation read each) served as K independent programs
// by K concurrent engines over one banded, module-sharded memory image.
// Execution is bit-for-bit identical at every K (pool differential tests);
// the sweep isolates serving throughput. cmd/bench runs the production
// n=1024 family; here a lighter point guards the path (and its
// zero-alloc steady state) in the CI bench smoke.
func BenchmarkE12PoolStep(b *testing.B) {
	const nTotal = 256
	for _, K := range []int{1, 4} {
		b.Run(fmt.Sprintf("n=%d/K=%d", nTotal, K), func(b *testing.B) {
			built, err := core.Spec{Kind: core.KindDMMPC, Lanes: K, Procs: nTotal / K}.BuildPool(K)
			if err != nil {
				b.Fatal(err)
			}
			dp := built.Pool
			mem := dp.Store().Map().Vars()
			batches := make([]model.Batch, K)
			for sh := range batches {
				lo, _ := memmap.BandRange(sh, mem, K)
				n := dp.ShardProcs()
				perm := rand.New(rand.NewSource(int64(sh) + 5)).Perm(n)
				batch := model.NewBatch(n)
				for i := 0; i < n; i++ {
					batch[i] = model.Request{Proc: i, Op: model.OpRead, Addr: lo + perm[i]}
				}
				batches[sh] = batch
			}
			b.ReportAllocs() // steady state must stay at 0 allocs/op
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if agg, _ := dp.ExecuteSteps(batches); agg.Err != nil {
					b.Fatal(agg.Err)
				}
			}
		})
	}
}

// --- E13: trace replay straight into the engine ---------------------------

// BenchmarkE13ReplayStep: one replayed step — trace-frame decode plus
// ExecuteDedupStep, rewinding the in-memory trace at end of file — on an
// E5-shape machine. cmd/bench runs the production n ∈ {1024, 4096} family
// with the live-step comparison; this lighter point guards the replay read
// path (and its zero-alloc steady state) in the CI bench smoke.
func BenchmarkE13ReplayStep(b *testing.B) {
	const n, steps = 256, 4
	cfg := core.Spec{Kind: core.KindMOT2D, Lanes: 1, Procs: n, Mode: model.CRCWPriority}
	built, err := cfg.Build()
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	rec, err := replay.NewRecorder(&buf, built)
	if err != nil {
		b.Fatal(err)
	}
	batch := permBatch(n, 5)
	for s := 0; s < steps; s++ {
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
	step := func() {
		for {
			executed, err := rp.Step()
			if err != nil {
				b.Fatal(err)
			}
			if executed {
				return
			}
			rd.Seek(0, io.SeekStart)
			if err := rp.Reset(rd); err != nil {
				b.Fatal(err)
			}
		}
	}
	for i := 0; i < steps+1; i++ { // warm arenas across a rewind
		step()
	}
	b.ReportAllocs() // steady state must stay at 0 allocs/op
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// --- E14: multi-tenant serving rounds ------------------------------------

// BenchmarkE14ServeStep: one steady-state serving round of the
// internal/serve front end — admission, band-aware scheduling, generator
// fill, pool round, accounting — on a small closed-loop banded mix.
// cmd/bench runs the production T=8/K-sweep family; this point guards the
// serving hot path (and its zero-alloc steady state) in the CI bench
// smoke.
func BenchmarkE14ServeStep(b *testing.B) {
	const tenants, procs = 2, 32
	cfg := serve.Config{Bands: tenants, Engines: tenants, Seed: 7}
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
	defer s.Close()
	for i := 0; i < 16; i++ { // warm the arenas (uniform draws vary batch shape)
		s.Round()
	}
	b.ReportAllocs() // steady state must stay at 0 allocs/op
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Round() != tenants {
			b.Fatal("serving round under-scheduled")
		}
	}
}

// BenchmarkE14ServeStepMOT2D: the same steady-state serving round with
// per-shard 2DMOT meshes behind the pool (2 × 64 procs → a 512-side grid
// per engine) — guards the mesh-backed serving hot path and its zero-alloc
// steady state in the CI bench smoke.
func BenchmarkE14ServeStepMOT2D(b *testing.B) {
	const tenants, procs = 2, 64
	cfg := serve.Config{Bands: tenants, Engines: tenants, Seed: 7, Interconnect: serve.MOT2D}
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
	defer s.Close()
	for i := 0; i < 16; i++ { // warm the arenas (uniform draws vary batch shape)
		s.Round()
	}
	b.ReportAllocs() // steady state must stay at 0 allocs/op
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Round() != tenants {
			b.Fatal("serving round under-scheduled")
		}
	}
}

// BenchmarkE14ServeStepSpans: the same steady-state serving round with a
// deliberately tiny event ring (depth 64), so every round overwrites —
// proving event recording rides the hot path at 0 allocs/op on the
// overwrite path too.
func BenchmarkE14ServeStepSpans(b *testing.B) {
	const tenants, procs = 2, 32
	cfg := serve.Config{Bands: tenants, Engines: tenants, Seed: 7, EventDepth: 64}
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
	defer s.Close()
	for i := 0; i < 16; i++ { // warm the arenas (uniform draws vary batch shape)
		s.Round()
	}
	b.ReportAllocs() // steady state must stay at 0 allocs/op
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Round() != tenants {
			b.Fatal("serving round under-scheduled")
		}
	}
	b.StopTimer()
	if s.Events().Dropped() == 0 {
		b.Fatal("event ring never wrapped — depth 64 no longer exercises the overwrite path")
	}
}

// --- E6: cross-scheme comparison (hashing both regimes) ------------------

func BenchmarkE6HashedRandomStep(b *testing.B) {
	const n = 256
	hm := hashsim.New(n, hashsim.Config{})
	batch := permBatch(n, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hm.ExecuteStep(batch)
	}
}

func BenchmarkE6HashedAdversarialStep(b *testing.B) {
	const n = 256
	hm := hashsim.New(n, hashsim.Config{})
	batch := hashsim.AdversarialBatch(hm.Hash(), n, hm.MemSize())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hm.ExecuteStep(batch)
	}
}

// --- E7: Schuster IDA memory ---------------------------------------------

func BenchmarkE7IDAReadStep(b *testing.B) {
	for _, n := range []int{64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			mem := ida.NewMemory(n, ida.Config{MemCells: 4096})
			batch := permBatch(n, 5)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mem.ExecuteStep(batch)
			}
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
		shares := dp.Encode(block)
		sub := make(gf.Vec, 10)
		for j, ix := range idxs {
			sub[j] = shares[ix]
		}
		out := dp.Decode(idxs, sub)
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
	p := memmap.LemmaTwo(n, 2, 1)
	st := quorum.NewStore(memmap.Generate(p, 11))
	eng := quorum.NewEngine(st, quorum.NewCompleteBipartite(), n)
	reqs := make([]quorum.Request, n)
	for i := range reqs {
		reqs[i] = quorum.Request{Proc: i, Var: i, Write: true, Value: 1}
	}
	b.ReportAllocs() // steady state must stay at 0 allocs/op
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := eng.ExecuteBatch(reqs)
		if res.Stalled {
			b.Fatal("stalled")
		}
	}
}

func BenchmarkMOTNetworkPhase(b *testing.B) {
	nw := mot.NewNetwork(1024, mot.ModulesAtLeaves, mot.Config{})
	attempts := make([]quorum.Attempt, 256)
	for i := range attempts {
		attempts[i] = quorum.Attempt{Proc: i, Module: (i * 37) % 1024, Var: i, Copy: 0}
	}
	b.ReportAllocs() // steady state must stay at 0 allocs/op
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.RoutePhase(attempts)
	}
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
		gf.SolveVandermonde(xs, ys)
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

// --- ablation benchmarks (design choices DESIGN.md calls out) --------------

// AblationMOTPolicy: the paper's drop-and-retry collision rule vs pure
// store-and-forward queueing on the same permutation step.
func BenchmarkAblationMOTPolicy(b *testing.B) {
	for _, pol := range []struct {
		name string
		p    mot.Policy
	}{{"drop", mot.DropOnCollision}, {"queue", mot.QueueOnCollision}} {
		b.Run(pol.name, func(b *testing.B) {
			mt := core.NewMOT2D(64, core.MOTConfig{Policy: pol.p})
			batch := permBatch(64, 5)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mt.ExecuteStep(batch)
			}
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
			mt := core.NewMOT2D(64, core.MOTConfig{DualRail: dr.on})
			batch := permBatch(64, 5)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mt.ExecuteStep(batch)
			}
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
			eng := quorum.NewEngine(quorum.NewStore(mk.mp), quorum.NewCompleteBipartite(), n)
			reqs := make([]quorum.Request, n)
			for i := range reqs {
				reqs[i] = quorum.Request{Proc: i, Var: i, Write: true, Value: 1}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if eng.ExecuteBatch(reqs).Stalled {
					b.Fatal("stalled")
				}
			}
		})
	}
}

// AblationModuleBandwidth: how per-phase module bandwidth (the stage-2
// pipelining knob) changes the DMMPC's phase count.
func BenchmarkAblationModuleBandwidth(b *testing.B) {
	const n = 256
	for _, bw := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("bw=%d", bw), func(b *testing.B) {
			p := memmap.LemmaTwo(n, 2, 1)
			st := quorum.NewStore(memmap.Generate(p, 11))
			eng := quorum.NewEngine(st, &quorum.CompleteBipartite{Bandwidth: bw, PhaseCost: 1}, n)
			reqs := make([]quorum.Request, n)
			for i := range reqs {
				reqs[i] = quorum.Request{Proc: i, Var: i, Write: true, Value: 1}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if eng.ExecuteBatch(reqs).Stalled {
					b.Fatal("stalled")
				}
			}
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
			dm := core.NewDMMPC(256, core.Config{TwoStage: ts.on})
			batch := permBatch(256, 5)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rep := dm.ExecuteStep(batch); rep.Err != nil {
					b.Fatal(rep.Err)
				}
			}
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
