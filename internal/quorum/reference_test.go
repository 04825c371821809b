// A clean-room reference of the cluster protocol. The production Engine
// keeps its per-batch state in a reused arena, tracks accessed copies in
// bitmasks and, on the complete bipartite graph, arbitrates and grants
// each copy in the same pass that schedules it. This file states the same
// protocol in its plainest form — maps, fresh slices every phase, an
// explicit arbitration step and an explicit grant step — and FuzzEngine
// holds the engine to it over random maps, batches, bandwidths and the
// two-stage schedule. It shares no code with engine.go or bipartite.go.
package quorum

import (
	"math/bits"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/memmap"
	"repro/internal/model"
)

// refCell is one copy in the reference store.
type refCell struct {
	val model.Word
	ts  uint64
}

// refMachine is the reference store and protocol: copies and row stamps in
// maps keyed by (variable, copy) and variable.
type refMachine struct {
	mp        *memmap.Map
	n, c, r   int
	bandwidth int   // per-module grants per phase
	phaseCost int64 // simulated time per phase
	maxPhases int   // explicit stall cap; 0 selects the default

	cells    map[[2]int]refCell
	rowStamp map[int]uint64
}

func newRefMachine(mp *memmap.Map, n, bandwidth int, phaseCost int64, maxPhases int) *refMachine {
	if bandwidth < 1 {
		bandwidth = 1
	}
	if phaseCost < 1 {
		phaseCost = 1
	}
	return &refMachine{
		mp: mp, n: n, c: mp.P.C, r: mp.R(),
		bandwidth: bandwidth, phaseCost: phaseCost, maxPhases: maxPhases,
		cells:    map[[2]int]refCell{},
		rowStamp: map[int]uint64{},
	}
}

// refResult mirrors the fields of Result the reference pins.
type refResult struct {
	Phases, Stage1Phases, Stage2Phases int
	Time, CopyAccesses                 int64
	MaxModuleLoad                      int
	LivePerPhase                       []int
	Values                             []model.Word
	Satisfied                          []bool
	Stalled                            bool
}

// stallCap is the engine's stall cap for a batch: MaxPhases if set, else
// its default.
func (rm *refMachine) stallCap(requests int) int {
	if rm.maxPhases > 0 {
		return rm.maxPhases
	}
	return requests*rm.c*4 + 64*rm.r + 256
}

// refAttempt is one member processor trying one copy of one request.
type refAttempt struct {
	proc, req, copy, module int
}

// run executes one batch of the round-robin cluster protocol: at most
// phaseCap phases at the given per-module bandwidth.
func (rm *refMachine) run(reqs []Request, bandwidth, phaseCap int) refResult {
	res := refResult{
		Values:    make([]model.Word, len(reqs)),
		Satisfied: make([]bool, len(reqs)),
	}
	if len(reqs) == 0 {
		return res
	}
	// A write batch's stamp outranks every stamp on the rows it writes.
	var now uint64
	written := []int{}
	for _, rq := range reqs {
		if rq.Write {
			written = append(written, rq.Var)
			now = max(now, rm.rowStamp[rq.Var])
		}
	}
	if len(written) > 0 {
		now++
		for _, v := range written {
			rm.rowStamp[v] = now
		}
	}

	// Processors k·r … k·r+r−1 form cluster k; a request belongs to the
	// cluster of its processor, the last cluster taking every processor
	// id past the end.
	clusters := (rm.n + rm.r - 1) / rm.r
	queue := map[int][]int{}
	for i, rq := range reqs {
		k := min(rq.Proc/rm.r, clusters-1)
		queue[k] = append(queue[k], i)
	}
	cursor := map[int]int{}
	accessed := map[int]map[int]bool{}
	for i := range reqs {
		accessed[i] = map[int]bool{}
	}
	seen := map[int]bool{} // reads that have taken at least one copy
	bestTS := map[int]uint64{}
	live := len(reqs)

	for phase := 0; live > 0; phase++ {
		if phase >= phaseCap {
			res.Stalled = true
			break
		}
		// Schedule: each cluster picks its next live request round-robin
		// and its members take the request's unaccessed copies in order.
		var attempts []refAttempt
		for k := 0; k < clusters; k++ {
			q := queue[k]
			pick := -1
			for s := 0; s < len(q) && pick < 0; s++ {
				pos := (cursor[k] + s) % len(q)
				if !res.Satisfied[q[pos]] {
					pick = q[pos]
					cursor[k] = pos + 1
				}
			}
			if pick < 0 {
				continue
			}
			member := k * rm.r
			last := min(member+rm.r, rm.n)
			for j := 0; j < rm.r && member < last; j++ {
				if accessed[pick][j] {
					continue
				}
				attempts = append(attempts, refAttempt{
					proc: member, req: pick, copy: j,
					module: rm.mp.ModuleOf(reqs[pick].Var, j),
				})
				member++
			}
		}
		// Arbitrate: each module grants its lowest-processor attempts.
		byModule := map[int][]refAttempt{}
		for _, a := range attempts {
			byModule[a.module] = append(byModule[a.module], a)
		}
		var granted []refAttempt
		for _, group := range byModule { // commutative: the grants are sorted below
			res.MaxModuleLoad = max(res.MaxModuleLoad, len(group))
			sort.Slice(group, func(x, y int) bool { return group[x].proc < group[y].proc })
			granted = append(granted, group[:min(bandwidth, len(group))]...)
		}
		// Grant: touch the copies in ascending processor order.
		sort.Slice(granted, func(x, y int) bool { return granted[x].proc < granted[y].proc })
		for _, a := range granted {
			rq := reqs[a.req]
			accessed[a.req][a.copy] = true
			res.CopyAccesses++
			key := [2]int{rq.Var, a.copy}
			if rq.Write {
				rm.cells[key] = refCell{val: rq.Value, ts: now}
			} else if cl := rm.cells[key]; !seen[a.req] || cl.ts > bestTS[a.req] {
				seen[a.req] = true
				bestTS[a.req] = cl.ts
				res.Values[a.req] = cl.val
			}
			if len(accessed[a.req]) == rm.c {
				res.Satisfied[a.req] = true
				live--
			}
		}
		res.Phases++
		if len(attempts) > 0 {
			res.Time += rm.phaseCost
		}
		res.LivePerPhase = append(res.LivePerPhase, live)
	}
	return res
}

// executeBatch is Engine.ExecuteBatch.
func (rm *refMachine) executeBatch(reqs []Request) refResult {
	return rm.run(reqs, rm.bandwidth, rm.stallCap(len(reqs)))
}

// ceilLog2 is ⌈log2 x⌉ for x ≥ 1.
func ceilLog2(x int) int { return bits.Len(uint(x - 1)) }

// executeTwoStage is Engine.ExecuteBatchTwoStage: stage 1 is the ordinary
// protocol capped at the stage-1 budget; if it stops short, stage 2 runs
// the unsatisfied requests afresh (new stamp, no copies accessed) at the
// stage-2 bandwidth.
func (rm *refMachine) executeTwoStage(reqs []Request, cfg TwoStageConfig) refResult {
	budget := cfg.Stage1Phases
	if budget <= 0 {
		budget = rm.r * (ceilLog2(ceilLog2(max(rm.n, 4))+1) + 2)
	}
	bw2 := cfg.Stage2Bandwidth
	if bw2 <= 0 {
		bw2 = max(1, ceilLog2(rm.n))
	}
	res := rm.run(reqs, rm.bandwidth, budget)
	res.Stage1Phases = res.Phases
	if !res.Stalled {
		return res
	}
	var liveReqs []Request
	var liveIdx []int
	for i, ok := range res.Satisfied {
		if !ok {
			liveReqs = append(liveReqs, reqs[i])
			liveIdx = append(liveIdx, i)
		}
	}
	s2 := rm.run(liveReqs, bw2, rm.stallCap(len(liveReqs)))
	res.Stalled = s2.Stalled
	res.Phases += s2.Phases
	res.Stage2Phases = s2.Phases
	res.Time += s2.Time
	res.CopyAccesses += s2.CopyAccesses
	res.MaxModuleLoad = max(res.MaxModuleLoad, s2.MaxModuleLoad)
	res.LivePerPhase = append(res.LivePerPhase, s2.LivePerPhase...)
	for j, i := range liveIdx {
		res.Satisfied[i] = s2.Satisfied[j]
		res.Values[i] = s2.Values[j]
	}
	return res
}

// fingerprint is Store.Fingerprint's FNV-1a over every (value, timestamp)
// pair in variable-major order, unwritten copies reading as zero.
func (rm *refMachine) fingerprint() uint64 {
	h := uint64(14695981039346656037)
	mix := func(x uint64) {
		for b := 0; b < 64; b += 8 {
			h ^= (x >> b) & 0xff
			h *= 1099511628211
		}
	}
	for v := 0; v < rm.mp.Vars(); v++ {
		for j := 0; j < rm.r; j++ {
			cl := rm.cells[[2]int{v, j}]
			mix(uint64(cl.val))
			mix(cl.ts)
		}
	}
	return h
}

// passThrough hides a *CompleteBipartite behind another type, so an
// engine over it schedules whole phases and routes them through
// RoutePhase, as it does for the 2DMOT and for wrapping interconnects.
type passThrough struct{ *CompleteBipartite }

// sameResult reports the first field where an engine Result and the
// reference differ, or "".
func sameResult(got Result, want refResult) string {
	switch {
	case got.Phases != want.Phases:
		return "Phases"
	case got.Time != want.Time:
		return "Time"
	case got.CopyAccesses != want.CopyAccesses:
		return "CopyAccesses"
	case got.MaxModuleLoad != want.MaxModuleLoad:
		return "MaxModuleLoad"
	case got.Stalled != want.Stalled:
		return "Stalled"
	case got.Stage1Phases != want.Stage1Phases || got.Stage2Phases != want.Stage2Phases:
		return "stage split"
	case len(got.LivePerPhase) != len(want.LivePerPhase):
		return "LivePerPhase length"
	case len(got.Values) != len(want.Values) || len(got.Satisfied) != len(want.Satisfied):
		return "result length"
	}
	for i := range want.LivePerPhase {
		if got.LivePerPhase[i] != want.LivePerPhase[i] {
			return "LivePerPhase"
		}
	}
	for i := range want.Values {
		if got.Values[i] != want.Values[i] {
			return "Values"
		}
		if got.Satisfied[i] != want.Satisfied[i] {
			return "Satisfied"
		}
	}
	return ""
}

// engineCase is one decoded FuzzEngine input.
type engineCase struct {
	n, c, modules, vars int
	bandwidth           int
	phaseCost           int64
	maxPhases           int
	twoStage            *TwoStageConfig
	batches             int
}

// checkEngine runs one case's batch stream through the reference, an
// engine on a bare CompleteBipartite and an engine on a passThrough, and
// fails at the first batch where any of the three disagree.
func checkEngine(t *testing.T, seed int64, ec engineCase) {
	t.Helper()
	p := memmap.Params{N: ec.n, M: ec.modules, Mem: ec.vars, B: 3, C: ec.c}
	mp := memmap.Generate(p, seed)
	ref := newRefMachine(mp, ec.n, ec.bandwidth, ec.phaseCost, ec.maxPhases)
	bare := NewEngine(NewStore(mp), &CompleteBipartite{Bandwidth: ec.bandwidth, PhaseCost: ec.phaseCost}, ec.n)
	wrapped := NewEngine(NewStore(mp),
		passThrough{&CompleteBipartite{Bandwidth: ec.bandwidth, PhaseCost: ec.phaseCost}}, ec.n)
	bare.MaxPhases, wrapped.MaxPhases = ec.maxPhases, ec.maxPhases

	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for b := 0; b < ec.batches; b++ {
		// Requests may repeat a variable and name processors past n.
		reqs := make([]Request, rng.Intn(2*ec.n+2))
		for i := range reqs {
			reqs[i] = Request{Proc: rng.Intn(ec.n + 3), Var: rng.Intn(ec.vars), Write: rng.Intn(2) == 0}
			if reqs[i].Write {
				reqs[i].Value = model.Word(rng.Int63n(1 << 20))
			}
		}
		var want refResult
		var got [2]Result
		if ec.twoStage != nil {
			want = ref.executeTwoStage(reqs, *ec.twoStage)
			got[0] = bare.ExecuteBatchTwoStage(reqs, *ec.twoStage)
			got[1] = wrapped.ExecuteBatchTwoStage(reqs, *ec.twoStage)
		} else {
			want = ref.executeBatch(reqs)
			got[0] = bare.ExecuteBatch(reqs)
			got[1] = wrapped.ExecuteBatch(reqs)
		}
		for k, name := range []string{"bipartite", "pass-through"} {
			if field := sameResult(got[k], want); field != "" {
				t.Fatalf("%+v batch %d (%d requests): %s engine differs from the reference in %s\n got %+v\nwant %+v",
					ec, b, len(reqs), name, field, got[k], want)
			}
		}
		fp := ref.fingerprint()
		if bare.store.Fingerprint() != fp || wrapped.store.Fingerprint() != fp {
			t.Fatalf("%+v batch %d: store fingerprints bipartite %x, pass-through %x, reference %x",
				ec, b, bare.store.Fingerprint(), wrapped.store.Fingerprint(), fp)
		}
	}
}

// FuzzEngine holds Engine to the reference protocol. The arguments pick
// the machine (n ≤ 48 processors, c ≤ 4, M from r to r+255 modules so
// that small M makes modules collide, up to 64 variables), the
// interconnect (bandwidth 0–3, where 0 is the zero value's unit
// bandwidth, and phase cost 0–3), an explicit stall cap (0 for the
// default), the schedule (stage1 = 0 for the plain loop, else two-stage
// with Stage1Phases = stage1−1, 0 selecting the default budget) and the
// number of batches; the seed draws the map and the batches.
func FuzzEngine(f *testing.F) {
	// seed, n, c, modules, vars, bandwidth, phaseCost, maxPhases, stage1, stage2Bandwidth, batches
	f.Add(int64(1), uint8(16), uint8(2), uint8(250), uint8(63), uint8(1), uint8(1), uint8(0), uint8(0), uint8(0), uint8(4))
	f.Add(int64(2), uint8(24), uint8(2), uint8(2), uint8(40), uint8(1), uint8(1), uint8(0), uint8(0), uint8(0), uint8(5))
	f.Add(int64(3), uint8(20), uint8(3), uint8(4), uint8(12), uint8(2), uint8(3), uint8(0), uint8(0), uint8(0), uint8(5))
	f.Add(int64(4), uint8(13), uint8(1), uint8(0), uint8(9), uint8(3), uint8(2), uint8(0), uint8(0), uint8(0), uint8(5))
	f.Add(int64(5), uint8(40), uint8(4), uint8(9), uint8(30), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(3))
	f.Add(int64(6), uint8(9), uint8(3), uint8(1), uint8(20), uint8(1), uint8(1), uint8(3), uint8(0), uint8(0), uint8(4))
	f.Add(int64(7), uint8(3), uint8(3), uint8(0), uint8(5), uint8(2), uint8(1), uint8(0), uint8(0), uint8(0), uint8(4))
	// Two-stage: a one- or two-phase stage 1 pushes most batches into
	// stage 2, at the default or an explicit stage-2 bandwidth.
	f.Add(int64(8), uint8(32), uint8(2), uint8(5), uint8(48), uint8(1), uint8(1), uint8(0), uint8(2), uint8(0), uint8(5))
	f.Add(int64(9), uint8(21), uint8(3), uint8(3), uint8(30), uint8(1), uint8(2), uint8(0), uint8(3), uint8(2), uint8(5))
	f.Add(int64(10), uint8(47), uint8(2), uint8(60), uint8(63), uint8(0), uint8(1), uint8(0), uint8(1), uint8(0), uint8(4))
	f.Add(int64(11), uint8(16), uint8(2), uint8(1), uint8(24), uint8(1), uint8(3), uint8(2), uint8(2), uint8(1), uint8(5))
	f.Add(int64(12), uint8(18), uint8(2), uint8(3), uint8(30), uint8(2), uint8(1), uint8(0), uint8(2), uint8(3), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, n, c, modules, vars, bandwidth, phaseCost, maxPhases, stage1, stage2Bandwidth, batches uint8) {
		ec := engineCase{
			n:         1 + int(n)%48,
			c:         1 + int(c)%4,
			vars:      1 + int(vars)%64,
			bandwidth: int(bandwidth) % 4,
			phaseCost: int64(phaseCost) % 4,
			maxPhases: int(maxPhases) % 8,
			batches:   1 + int(batches)%6,
		}
		ec.modules = 2*ec.c - 1 + int(modules)
		if stage1 > 0 {
			ec.twoStage = &TwoStageConfig{Stage1Phases: int(stage1) - 1, Stage2Bandwidth: int(stage2Bandwidth) % 4}
		}
		checkEngine(t, seed, ec)
	})
}
