package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	pramsim "repro"
	"repro/internal/core"
	"repro/internal/ideal"
	"repro/internal/memmap"
	"repro/internal/model"
	"repro/internal/mot"
	"repro/internal/quorum"
	"repro/internal/replay"
	"repro/internal/workloads"
)

// simProcs is the P-RAM size of the three machine-level workloads.
const simProcs = 1024

// simSpec fixes one machine-level workload: its warm-up and the count of
// first ops whose simulated cost is reported (it repeats exactly).
type simSpec struct {
	warmup int // steps (sorts on sort-dmmpc) run before the window
	simN   int // first steps averaged into the sim_* metrics
}

var simSpecs = map[string]simSpec{
	"sort-dmmpc":    {warmup: 1, simN: 200},
	"hotspot-dmmpc": {warmup: 500, simN: 1000},
	"uniform-mot2d": {warmup: 16, simN: 64},
}

// rig is one built machine: the backend a workload steps and, in a traced
// build, the parts the per-layer metrics read.
type rig struct {
	backend model.Backend
	q       *quorum.Machine
	net     *routeMeter
	mesh    *mot.Network // uniform-mot2d only
	mapGen  time.Duration
}

// buildRig constructs a workload's machine. Untraced, it calls the product
// constructors. Traced, it assembles the same machine from the public parts
// those constructors use (parameters, memmap.Generate, quorum.NewStore,
// quorum.NewMachine) so the interconnect can be wrapped; the memory-map
// seed stays at the product default of 1 either way.
func buildRig(name string, tr *tracer) rig {
	if tr == nil {
		switch name {
		case "sort-dmmpc":
			return rig{backend: pramsim.NewDMMPC(simProcs, pramsim.DMMPCConfig{Mode: pramsim.EREW})}
		case "hotspot-dmmpc":
			return rig{backend: core.NewDMMPC(simProcs, core.Config{Mode: model.CRCWPriority})}
		default:
			return rig{backend: core.NewMOT2D(simProcs,
				core.MOTConfig{K: 1.5, Delta: 1.8, Mode: model.CRCWPriority, Parallelism: 1})}
		}
	}
	var (
		p    memmap.Params
		side int
		mode = model.CRCWPriority
	)
	if name == "uniform-mot2d" {
		p, side = memmap.TheoremThree(simProcs, 1.5, 1.8)
	} else {
		p = memmap.LemmaTwo(simProcs, 2, 1)
		if name == "sort-dmmpc" {
			mode = model.EREW
		}
	}
	t0 := time.Now()
	mp := memmap.Generate(p, 1)
	gen := time.Since(t0)
	r := rig{mapGen: gen}
	var inner quorum.Interconnect = quorum.NewCompleteBipartite()
	layer := "quorum.CompleteBipartite.RoutePhase"
	if side > 0 {
		r.mesh = mot.NewNetwork(side, mot.ModulesAtLeaves, mot.Config{Parallelism: 1})
		inner, layer = r.mesh, "mot.Network.RoutePhase"
	}
	r.net = &routeMeter{inner: inner, tr: tr, name: layer, perCall: side > 0}
	r.q = quorum.NewMachine(name, simProcs, mode, quorum.NewStore(mp), r.net)
	r.backend = r.q
	return r
}

// routeMeter wraps an interconnect in the traced build: it times every
// RoutePhase and counts attempts and grants.
type routeMeter struct {
	inner   quorum.Interconnect
	tr      *tracer
	name    string
	perCall bool // keep per-call latencies (the 2DMOT's few, long phases)

	parent, op int64 // span and op of the ExecuteStep in progress

	n       routeCounts
	callLat samples
}

type routeCounts struct {
	calls, attempts, granted int64
	dur                      time.Duration
}

// RoutePhase implements quorum.Interconnect.
func (r *routeMeter) RoutePhase(attempts []quorum.Attempt) ([]bool, int64, int) {
	start := time.Now()
	granted, t, load := r.inner.RoutePhase(attempts)
	end := time.Now()
	d := end.Sub(start)
	r.n.calls++
	r.n.attempts += int64(len(attempts))
	for _, ok := range granted {
		if ok {
			r.n.granted++
		}
	}
	r.n.dur += d
	if r.perCall {
		r.callLat.add(d)
	}
	r.tr.add(r.tr.id(), r.parent, r.name, 1, start, end, r.op)
	return granted, t, load
}

// TimeInCycles forwards quorum.CycleTimed, so a wrapped 2DMOT still reports
// its phase times as network cycles.
func (r *routeMeter) TimeInCycles() bool {
	ct, ok := r.inner.(quorum.CycleTimed)
	return ok && ct.TimeInCycles()
}

// simCost is the simulated cost of a workload's first simN steps. It is a
// pure function of the seed, so traced and untraced runs must agree on it.
type simCost struct {
	Steps, Time, Phases, Cycles, Copies int64
}

// meter is the backend boundary every machine-level workload steps
// through. It stamps each step's completion, so an op's latency is the host
// time from the previous completion (or from the last resume, which skips
// the benchmark's own checks) to this one. On sort-dmmpc that includes the
// machine coordinator; on the generator loops, the batch generation.
type meter struct {
	model.Backend
	prev  time.Time
	lat   samples
	timed time.Duration
	simN  int
	sim   simCost
	tr    *simTrace // nil untraced
}

func (m *meter) resume() { m.prev = time.Now() }

// ExecuteStep implements model.Backend.
func (m *meter) ExecuteStep(b model.Batch) model.StepReport {
	if m.tr != nil {
		return m.tr.step(m, b)
	}
	rep := m.Backend.ExecuteStep(b)
	m.done(rep, time.Now())
	return rep
}

func (m *meter) done(rep model.StepReport, now time.Time) {
	d := now.Sub(m.prev)
	m.prev = now
	m.lat.add(d)
	m.timed += d
	if m.sim.Steps < int64(m.simN) {
		m.sim.Steps++
		m.sim.Time += rep.Time
		m.sim.Phases += int64(rep.Phases)
		m.sim.Cycles += rep.NetworkCycles
		m.sim.Copies += rep.CopyAccesses
	}
}

// simTrace is the traced build's view of the step boundary: spans for the
// op, ExecuteStep and (via routeMeter) every RoutePhase, plus the counters
// the per-layer metrics are computed from.
type simTrace struct {
	tr     *tracer
	q      *quorum.Machine
	net    *routeMeter
	opName string
	root   int64 // span of the enclosing sort (sort-dmmpc only)
	opID   int64 // span reserved for the op in progress
	ops    int64

	exec                 samples
	execSelf, above, gen time.Duration
	requests, dedup      int64
	phases, readPhases   int64
	copies, liveArea     int64
	maxLoad              int
}

func newSimTrace(tr *tracer, r rig, opName string) *simTrace {
	tr.nameTrack(1, "benchmark goroutine")
	return &simTrace{tr: tr, q: r.q, net: r.net, opName: opName, opID: tr.id()}
}

func (s *simTrace) step(m *meter, b model.Batch) model.StepReport {
	execID := s.tr.id()
	s.net.parent, s.net.op = execID, s.ops
	routeBefore := s.net.n.dur
	start := time.Now()
	rep := m.Backend.ExecuteStep(b)
	end := time.Now()
	exec := end.Sub(start)
	s.tr.add(execID, s.opID, "quorum.Machine.ExecuteStep", 1, start, end, s.ops)
	s.tr.add(s.opID, s.root, s.opName, 1, m.prev, end, s.ops)
	s.exec.add(exec)
	s.execSelf += exec - (s.net.n.dur - routeBefore)
	s.above += start.Sub(m.prev)
	s.requests += int64(b.Active())
	s.dedup += int64(s.q.LastDedupRequests())
	_, readPhases, area := s.q.LastStepBreakdown()
	s.readPhases += int64(readPhases)
	s.liveArea += area
	s.phases += int64(rep.Phases)
	s.copies += rep.CopyAccesses
	s.maxLoad = max(s.maxLoad, rep.ModuleContention)
	s.ops++
	s.opID = s.tr.id()
	m.done(rep, end)
	return rep
}

// genSpan records input generation that belongs to the op in progress.
func (s *simTrace) genSpan(name string, start, end time.Time) {
	s.gen += end.Sub(start)
	s.tr.add(s.tr.id(), s.opID, name, 1, start, end, s.ops)
}

// oracle re-executes every batch on the ideal P-RAM (internal/ideal), which
// shares no code with the quorum machines, and compares the values read.
// Steps are copied aside and checked checkBatch at a time, so the ideal
// machine's memory traffic lands between timed steps rarely rather than
// after every one.
type oracle struct {
	ref     *ideal.PRAM
	touched []bool
	pend    [checkBatch]pendingStep
	n       int
}

const checkBatch = 64

// pendingStep is an executed step awaiting its check.
type pendingStep struct {
	step  int
	batch model.Batch
	vals  []model.Word
}

func newOracle(mem int, mode model.Mode) *oracle {
	return &oracle{ref: ideal.New(simProcs, mem, mode), touched: make([]bool, mem)}
}

// record queues a step for checking and checks the queue once it is full.
func (o *oracle) record(step int, b model.Batch, rep model.StepReport) error {
	if rep.Err != nil {
		return fmt.Errorf("step %d: %w", step, rep.Err)
	}
	p := &o.pend[o.n]
	p.step = step
	p.batch = append(p.batch[:0], b...)
	p.vals = append(p.vals[:0], rep.Values...)
	if o.n++; o.n == checkBatch {
		return o.flush()
	}
	return nil
}

// flush checks the queued steps in execution order.
func (o *oracle) flush() error {
	n := o.n
	o.n = 0
	for _, p := range o.pend[:n] {
		want := o.ref.ExecuteStep(p.batch)
		for _, r := range p.batch {
			switch r.Op {
			case model.OpRead:
				if got := p.vals[r.Proc]; got != want.Values[r.Proc] {
					return fmt.Errorf("step %d: processor %d read cell %d = %d, ideal P-RAM read %d",
						p.step, r.Proc, r.Addr, got, want.Values[r.Proc])
				}
			case model.OpWrite:
				o.touched[r.Addr] = true
			}
		}
	}
	return nil
}

// final compares the committed value of every written cell; call it after
// flush.
func (o *oracle) final(b model.Backend) error {
	for a, t := range o.touched {
		if t && b.ReadCell(a) != o.ref.ReadCell(a) {
			return fmt.Errorf("final memory: cell %d = %d, ideal P-RAM holds %d", a, b.ReadCell(a), o.ref.ReadCell(a))
		}
	}
	return nil
}

// simSession is one set-up machine-level workload, ready to run ops.
type simSession struct {
	name   string
	seed   int64
	rig    rig
	m      *meter
	gen    *replay.Generator // generator loops only
	oracle *oracle           // generator loops only
	next   int               // next op (step, or sort on sort-dmmpc)
}

func newSimSession(name string, seed int64, tr *tracer, wrap func(model.Backend) model.Backend) *simSession {
	spec := simSpecs[name]
	r := buildRig(name, tr)
	backend := r.backend
	if wrap != nil {
		backend = wrap(backend)
	}
	s := &simSession{name: name, seed: seed, rig: r, m: &meter{Backend: backend, simN: spec.simN}}
	if tr != nil {
		opName := "bench.step"
		if name == "sort-dmmpc" {
			opName = "machine.step"
		}
		s.m.tr = newSimTrace(tr, r, opName)
	}
	switch name {
	case "hotspot-dmmpc":
		s.gen = replay.NewGenerator(replay.Hotspot, 1, simProcs, r.backend.MemSize(), seed)
	case "uniform-mot2d":
		s.gen = replay.NewGenerator(replay.Uniform, 1, simProcs, r.backend.MemSize(), seed)
	}
	if s.gen != nil {
		s.oracle = newOracle(r.backend.MemSize(), model.CRCWPriority)
	}
	return s
}

// op runs one benchmark op: a whole bitonic sort on sort-dmmpc, one
// generated step elsewhere. Checks run after the op's last step, outside
// the timed region.
func (s *simSession) op() error {
	i := s.next
	s.next++
	st := s.m.tr
	if s.gen == nil {
		s.m.resume()
		start := s.m.prev
		if st != nil {
			st.root = st.tr.id()
		}
		w := workloads.BitonicSort(simProcs, s.seed+int64(i))
		if st != nil {
			st.genSpan("workloads.BitonicSort", start, time.Now())
		}
		rep, err := pramsim.RunWorkload(w, s.m)
		if st != nil {
			st.tr.add(st.root, 0, "pramsim.RunWorkload", 1, start, time.Now(), int64(i))
		}
		if err != nil {
			return fmt.Errorf("sort %d: %w", i, err)
		}
		return rep.Err()
	}
	var g0 time.Time
	if st != nil {
		g0 = time.Now()
	}
	b := s.gen.Step(i)[0]
	if st != nil {
		st.genSpan("replay.Generator.Step", g0, time.Now())
	}
	rep := s.m.ExecuteStep(b)
	err := s.oracle.record(i, b, rep)
	s.m.resume()
	return err
}

// setUpSim builds a session and runs its warm-up; the returned duration is
// construction plus the warm-up ops' timed share (checks excluded).
func setUpSim(name string, seed int64, tr *tracer, wrap func(model.Backend) model.Backend) (*simSession, time.Duration, error) {
	start := time.Now()
	s := newSimSession(name, seed, tr, wrap)
	built := time.Since(start)
	s.m.resume()
	for i := 0; i < simSpecs[name].warmup; i++ {
		if err := s.op(); err != nil {
			return s, 0, fmt.Errorf("warm-up: %w", err)
		}
	}
	return s, built + s.m.timed, nil
}

// runSim runs one machine-level workload: `setups` set-ups (the last one is
// kept), then ops until the timed window is full and the first simN steps
// are done, then the final-memory check.
func runSim(name string, seed int64, window time.Duration, tr *tracer, setups int, wrap func(model.Backend) model.Backend) (*result, simCost) {
	res := newResult(name, tr != nil)
	var (
		s     *simSession
		setup []float64
	)
	for i := 0; i < setups; i++ {
		if s != nil {
			s = nil
			debug.FreeOSMemory() // each set-up starts from returned memory, like a fresh process
		}
		var d time.Duration
		var err error
		s, d, err = setUpSim(name, seed, tr, wrap)
		if err != nil {
			res.fail(err)
			return res, simCost{}
		}
		setup = append(setup, d.Seconds())
	}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	spec := simSpecs[name]
	w0 := s.snapshot()
	for s.m.timed-w0.timed < window || s.m.sim.Steps < int64(spec.simN) {
		if err := s.op(); err != nil {
			res.fail(err)
			break
		}
	}
	if s.oracle != nil && res.Correct {
		err := s.oracle.flush()
		if err == nil {
			err = s.oracle.final(s.m)
		}
		if err != nil {
			res.fail(err)
		}
	}

	lat := s.m.lat[w0.ops:]
	steps := int64(len(lat))
	res.Attempted = steps
	res.set("setup_s", median(setup), "s", int64(len(setup)))
	res.set("steps_per_s", lat.rate(), "steps/s", steps)
	res.set("latency_ms_p50", chunkMedian(lat, samples.p50), "ms", steps)
	res.set("latency_ms_p99", chunkMedian(lat, samples.p99), "ms", steps)
	res.set("heap_mb", float64(mem.HeapAlloc)/(1<<20), "MiB", 1)
	res.set("failed_ratio", 0, "fraction", steps)
	c := s.m.sim
	res.set("sim_time_per_step", ratio(float64(c.Time), float64(c.Steps)), "sim_units", c.Steps)
	res.set("sim.phases_per_step", ratio(float64(c.Phases), float64(c.Steps)), "phases", c.Steps)
	res.set("sim.cycles_per_step", ratio(float64(c.Cycles), float64(c.Steps)), "cycles", c.Steps)
	if s.m.tr != nil {
		s.layers(res, w0, steps)
	}
	return res, c
}

// simWindow is the state of a session's counters when the window opens.
type simWindow struct {
	ops   int
	timed time.Duration
	tr    simTrace
	route routeCounts
	calls int
	mesh  mot.Stats
}

func (s *simSession) snapshot() simWindow {
	w := simWindow{ops: len(s.m.lat), timed: s.m.timed}
	if s.m.tr != nil {
		w.tr = *s.m.tr
		w.route = s.rig.net.n
		w.calls = len(s.rig.net.callLat)
		if s.rig.mesh != nil {
			w.mesh = s.rig.mesh.Stats()
		}
	}
	return w
}

// layers derives a traced run's per-layer metrics from the counters' growth
// over the window.
func (s *simSession) layers(res *result, w0 simWindow, steps int64) {
	t, t0 := s.m.tr, &w0.tr
	n := float64(steps)
	perStep := func(v int64) float64 { return float64(v) / n }
	msPerStep := func(d time.Duration) float64 { return ms(d) / n }
	exec := t.exec[len(t0.exec):]
	gen := t.gen - t0.gen
	req, dedup := t.requests-t0.requests, t.dedup-t0.dedup
	res.set("input.gen_ms_per_step", msPerStep(gen), "ms", steps)
	res.set("exec.call_ms_p50", exec.quantile(0.50), "ms", steps)
	res.set("exec.call_ms_p99", exec.quantile(0.99), "ms", steps)
	res.set("memmap.generate_s", s.rig.mapGen.Seconds(), "s", 1)
	res.set("quorum.store_mb", storeMiB(s.rig.q.Store().Map().P), "MiB", 1)
	res.set("quorum.requests_per_step", perStep(req), "count", steps)
	res.set("quorum.dedup_requests_per_step", perStep(dedup), "count", steps)
	res.set("quorum.dedup_ratio", ratio(float64(dedup), float64(req)), "ratio", steps)
	res.set("quorum.phases_per_step", perStep(t.phases-t0.phases), "count", steps)
	res.set("quorum.read_phases_per_step", perStep(t.readPhases-t0.readPhases), "count", steps)
	res.set("quorum.copy_accesses_per_step", perStep(t.copies-t0.copies), "count", steps)
	res.set("quorum.live_area_per_step", perStep(t.liveArea-t0.liveArea), "count", steps)
	res.set("quorum.max_module_load", float64(t.maxLoad), "count", steps)
	res.set("quorum.step_ms_p50", exec.quantile(0.50), "ms", steps)
	res.set("quorum.step_ms_p99", exec.quantile(0.99), "ms", steps)
	res.set("quorum.self_ms_per_step", msPerStep(t.execSelf-t0.execSelf), "ms", steps)

	nm := s.rig.net
	r := routeCounts{calls: nm.n.calls - w0.route.calls, attempts: nm.n.attempts - w0.route.attempts,
		granted: nm.n.granted - w0.route.granted, dur: nm.n.dur - w0.route.dur}
	res.set("quorum.route_calls_per_step", perStep(r.calls), "count", steps)
	res.set("quorum.attempts_per_call", ratio(float64(r.attempts), float64(r.calls)), "count", r.calls)
	if s.rig.mesh == nil {
		res.set("quorum.route_ms_per_step", msPerStep(r.dur), "ms", steps)
		res.set("quorum.grant_ratio", ratio(float64(r.granted), float64(r.attempts)), "ratio", r.attempts)
	} else {
		d := s.rig.mesh.Stats().Sub(w0.mesh)
		res.set("mot.route_ms_per_step", msPerStep(r.dur), "ms", steps)
		res.set("mot.route_ms_per_call_p50", nm.callLat[w0.calls:].quantile(0.50), "ms", r.calls)
		res.set("mot.cycles_per_step", perStep(d.Cycles), "cycles", steps)
		res.set("mot.hops_per_step", perStep(d.Hops), "count", steps)
		res.set("mot.collision_ratio", ratio(float64(d.Collisions), float64(d.Hops)), "ratio", d.Hops)
		res.set("mot.grant_ratio", ratio(float64(r.granted), float64(r.attempts)), "ratio", r.attempts)
		res.set("mot.max_queue", float64(d.MaxQueue), "count", 1)
	}
	if s.name == "sort-dmmpc" {
		// Above the step boundary on sort-dmmpc sits the machine
		// coordinator, plus the per-sort input construction taken out here.
		res.set("machine.self_ms_per_step", msPerStep(t.above-t0.above-gen), "ms", steps)
		res.set("machine.active_procs_per_step", perStep(req), "count", steps)
	}
}

// storeMiB is the quorum store's footprint: m·r (value, stamp) cells plus
// one row stamp per variable.
func storeMiB(p memmap.Params) float64 {
	return float64(p.Mem*p.R()*16+p.Mem*8) / (1 << 20)
}
