// Package machine executes P-RAM programs. Each of the n P-RAM processors
// runs as a coroutine (iter.Pull) on the goroutine that called Run. One step
// loop resumes every live processor in ascending id order; each runs until
// its next Read, Write or Sync and yields that memory action into the step's
// batch. The loop then executes the batch on a model.Backend (the ideal
// P-RAM or any of the simulating machines) and hands every reader its value
// before the next resume — coroutines as P-RAM processors, the step loop as
// the synchronous step barrier.
//
// The same Program therefore runs, unmodified, on every machine model in the
// repository, with the backend deciding only how much simulated time each
// step costs.
package machine

import (
	"fmt"
	"iter"

	"repro/internal/model"
)

// Program is the code of one P-RAM processor. It interacts with shared
// memory only through p. Returning halts the processor; remaining
// processors keep stepping. A panic halts only the panicking processor and
// is reported in RunReport.Panics.
//
// Programs run as coroutines on the goroutine that called Run: within a
// step, processors run one at a time, in ascending id order, each up to its
// next Read, Write or Sync. Read, Write and Sync must be called from the
// goroutine the program runs on. runtime.Goexit inside a program (t.FailNow,
// for example) ends the goroutine that called Run, not just the processor.
type Program func(p *Proc)

// Proc is the interface a running processor has to the machine: its
// identity and the three P-RAM step primitives. Each call to Read, Write or
// Sync is one P-RAM step boundary, at which the processor's coroutine yields
// its memory action to the step loop; local computation between calls is
// free, exactly as in the model.
type Proc struct {
	id    int
	n     int
	mem   int // backend.MemSize(): addresses must lie in [0, mem)
	yield func(model.Request) bool
	val   model.Word // the value the last Read returned, stored by the step loop
	err   error      // the panic that halted this processor, if any
}

// stopped is the panic value that unwinds a processor whose run has ended
// (its coroutine was stopped while parked at a step boundary).
type stopped struct{}

// ID returns this processor's index in [0, n).
func (p *Proc) ID() int { return p.id }

// N returns the machine's processor count.
func (p *Proc) N() int { return p.n }

// Read performs a shared-memory read as this processor's action for the
// current step and returns the value (the cell's content at step start).
// An address outside shared memory halts the processor with a panic.
func (p *Proc) Read(a model.Addr) model.Word {
	p.check("read", a)
	p.step(model.Request{Proc: p.id, Op: model.OpRead, Addr: a})
	return p.val
}

// Write performs a shared-memory write as this processor's action for the
// current step. An address outside shared memory halts the processor with a
// panic.
func (p *Proc) Write(a model.Addr, v model.Word) {
	p.check("write", a)
	p.step(model.Request{Proc: p.id, Op: model.OpWrite, Addr: a, Value: v})
}

// Sync spends one step doing only local computation (a P-RAM no-op step),
// keeping this processor in lockstep with the others.
func (p *Proc) Sync() {
	p.step(model.Request{Proc: p.id, Op: model.OpNone})
}

func (p *Proc) check(op string, a model.Addr) {
	if a < 0 || a >= p.mem {
		panic(fmt.Errorf("%s of cell %d outside shared memory [0, %d)", op, a, p.mem))
	}
}

// step yields this processor's action for the current step and returns once
// the step has executed.
func (p *Proc) step(r model.Request) {
	if !p.yield(r) {
		panic(stopped{})
	}
}

// body is the coroutine hosting program on p. It turns a panic into p.err,
// so a crashing processor halts alone, and swallows the stopped unwind.
func (p *Proc) body(program Program) iter.Seq[model.Request] {
	return func(yield func(model.Request) bool) {
		p.yield = yield
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(stopped); !ok {
					p.err = fmt.Errorf("processor %d panicked: %v", p.id, r)
				}
			}
		}()
		program(p)
	}
}

// RunReport aggregates the cost of a complete program run.
type RunReport struct {
	Steps         int64 // P-RAM steps executed
	SimTime       int64 // total simulated time in the backend's unit
	Phases        int64 // total quorum phases (module machines)
	NetworkCycles int64 // total interconnect cycles (2DMOT)
	CopyAccesses  int64 // total variable-copy accesses
	MaxContention int   // worst per-module load seen in any step
	Violations    []error
	Panics        []error // in step order, ascending processor id within a step
}

// Err returns the first conflict violation or processor panic, or nil.
func (r *RunReport) Err() error {
	if len(r.Violations) > 0 {
		return r.Violations[0]
	}
	if len(r.Panics) > 0 {
		return r.Panics[0]
	}
	return nil
}

// Machine couples n processors to a backend. A Machine is single-use: one
// Run/RunEach consumes it, and a second Run panics. A run's processors and
// step batch belong to that run alone, so every run starts from a fresh
// Machine (New is cheap; the backend carries the state across runs).
type Machine struct {
	backend  model.Backend
	n        int
	consumed bool
}

// New returns a machine driving backend with backend.Procs() processors.
func New(backend model.Backend) *Machine {
	return &Machine{backend: backend, n: backend.Procs()}
}

// Backend returns the machine's backend.
func (m *Machine) Backend() model.Backend { return m.backend }

// Run executes program on all n processors and returns the aggregate cost
// report. It returns once every processor has halted.
func (m *Machine) Run(program Program) *RunReport {
	return m.RunEach(func(int) Program { return program })
}

// RunEach executes a per-processor program selected by pick(id). It returns
// once every processor has halted. Calling it (or Run) a second time on the
// same Machine panics. A panic in the backend unwinds RunEach with the
// backend's panic value, after every processor has been stopped.
func (m *Machine) RunEach(pick func(id int) Program) *RunReport {
	if m.consumed {
		panic("machine.Machine: Run/RunEach called on a consumed machine; create a new Machine with machine.New for each run")
	}
	m.consumed = true
	procs := make([]Proc, m.n)
	next := make([]func() (model.Request, bool), m.n)
	stops := make([]func(), m.n)
	defer func() {
		for _, stop := range stops {
			if stop != nil {
				stop()
			}
		}
	}()
	mem := m.backend.MemSize()
	for i := range procs {
		procs[i] = Proc{id: i, n: m.n, mem: mem}
		next[i], stops[i] = iter.Pull(procs[i].body(pick(i)))
	}
	return m.lockstep(procs, next)
}

// lockstep is the step loop: resume every live processor in ascending id
// order, gather the actions they yield into one batch reused for the whole
// run, execute it, and store each reader's value before the next resume. A
// processor whose coroutine finishes has halted; its next entry becomes nil
// and its batch slot goes back to idle. The run ends at the first step in
// which no processor yields.
//
//pram:hotpath
func (m *Machine) lockstep(procs []Proc, next []func() (model.Request, bool)) *RunReport {
	rep := &RunReport{}
	batch := model.NewBatch(m.n)
	for {
		active := 0
		for id, resume := range next {
			if resume == nil {
				continue
			}
			req, ok := resume()
			if !ok {
				next[id] = nil
				batch[id] = model.Request{Proc: id, Op: model.OpNone}
				if err := procs[id].err; err != nil {
					//pram:coldalloc a processor panicked: at most once per processor per run
					rep.Panics = append(rep.Panics, err)
				}
				continue
			}
			batch[id] = req
			active++
		}
		if active == 0 {
			return rep
		}
		sr := m.backend.ExecuteStep(batch)
		rep.Steps++
		rep.SimTime += sr.Time
		rep.Phases += int64(sr.Phases)
		rep.NetworkCycles += sr.NetworkCycles
		rep.CopyAccesses += sr.CopyAccesses
		if sr.ModuleContention > rep.MaxContention {
			rep.MaxContention = sr.ModuleContention
		}
		if sr.Err != nil {
			//pram:coldalloc a conflict violation: an erroneous program, not steady state
			rep.Violations = append(rep.Violations, sr.Err)
		}
		for id := range batch {
			if batch[id].Op == model.OpRead {
				procs[id].val = sr.Values[id]
			}
		}
	}
}
