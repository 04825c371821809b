// Package machine executes P-RAM programs. Each of the n P-RAM processors
// runs as a coroutine (iter.Pull) on the goroutine that called Run and
// keeps a bounded queue of the memory actions it has issued but the machine
// has not executed yet. Only a Read returns anything to a processor, so
// Write and Sync just queue their action and return: a processor runs on
// through its local computation until it Reads or fills its queue, and only
// then yields. One step loop takes one queued action from every live
// processor, in ascending id order, into the step's batch, and resumes a
// processor only when its queue is empty. The loop then executes the batch
// on a model.Backend (the ideal P-RAM or any of the simulating machines)
// and stores every reader's value before that reader is resumed —
// coroutines as P-RAM processors, the step loop as the synchronous step
// barrier.
//
// Queueing moves only when a processor's Go code runs, never what a step
// does: every step's batch, the RunReport and the final memory are those
// of resuming every processor at every step.
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
// is reported in RunReport.Panics. Either takes effect at the step after
// the one that executes the processor's last Read, Write or Sync.
//
// Programs run as coroutines on the goroutine that called Run, one at a
// time, resumed in ascending id order within a step. A processor is resumed
// only to take the value of its Read or when its action queue is full, so
// its local computation may run ahead of the steps that execute its queued
// Writes and Syncs: code between actions must depend only on what Read
// returns, not on what other processors' code has done. Read, Write and
// Sync must be called from the goroutine the program runs on.
// runtime.Goexit inside a program (t.FailNow, for example) ends the
// goroutine that called Run, not just the processor, and may end it before
// the processor's earlier queued actions have executed.
type Program func(p *Proc)

// Proc is the interface a running processor has to the machine: its
// identity and the three P-RAM step primitives. Each call to Read, Write or
// Sync is one P-RAM step of this processor; local computation between calls
// is free, exactly as in the model. Write and Sync queue their action and
// return at once unless that fills the queue; Read queues its action and
// yields until the step that executes it has run.
type Proc struct {
	// Read and the step loop touch the fields up to and including the
	// first queue slot at every step. They fit one 64-byte cache line, so
	// a program that Reads at every step touches one line of its Proc per
	// step.
	head, tail uint8 // queue[head:tail] are issued actions still to execute
	id         int32
	mem        int // backend.MemSize(): addresses must lie in [0, mem)
	yield      func(struct{}) bool
	val        model.Word // the value the last Read returned, stored by the step loop
	queue      [queueCap]model.Request
	n          int
	err        error   // the panic that halted this processor, if any
	_          [8]byte // pads Proc to nine whole cache lines
}

// queueCap bounds each processor's action queue: a run of Writes and Syncs
// yields once per queueCap actions. On an n = 1024 bitonic sort any bound
// from 8 up runs at about the same speed; each slot costs a processor 32
// bytes.
const queueCap = 16

// stopped is the panic value that unwinds a processor whose run has ended
// (its coroutine was stopped while parked at a step boundary).
type stopped struct{}

// ID returns this processor's index in [0, n).
func (p *Proc) ID() int { return int(p.id) }

// N returns the machine's processor count.
func (p *Proc) N() int { return p.n }

// Read performs a shared-memory read as this processor's next step and
// returns the value (the cell's content at the start of that step). An
// address outside shared memory halts the processor with a panic.
func (p *Proc) Read(a model.Addr) model.Word {
	p.check("read", a)
	p.queue[p.tail] = model.Request{Proc: int(p.id), Op: model.OpRead, Addr: a}
	p.tail++
	p.wait()
	return p.val
}

// Write performs a shared-memory write as this processor's next step. An
// address outside shared memory halts the processor with a panic.
func (p *Proc) Write(a model.Addr, v model.Word) {
	p.check("write", a)
	p.push(model.Request{Proc: int(p.id), Op: model.OpWrite, Addr: a, Value: v})
}

// Sync spends this processor's next step doing only local computation (a
// P-RAM no-op step), keeping it in lockstep with the others.
func (p *Proc) Sync() {
	p.push(model.Request{Proc: int(p.id), Op: model.OpNone})
}

func (p *Proc) check(op string, a model.Addr) {
	if a < 0 || a >= p.mem {
		panic(fmt.Errorf("%s of cell %d outside shared memory [0, %d)", op, a, p.mem))
	}
}

// push queues an action that returns nothing, yielding only if the queue
// is now full.
func (p *Proc) push(r model.Request) {
	p.queue[p.tail] = r
	if p.tail++; p.tail == queueCap {
		p.wait()
	}
}

// wait yields to the step loop and returns once every queued action has
// executed.
func (p *Proc) wait() {
	if !p.yield(struct{}{}) {
		panic(stopped{})
	}
}

// body is the coroutine hosting program on p. It turns a panic into p.err,
// so a crashing processor halts alone, and swallows the stopped unwind.
func (p *Proc) body(program Program) iter.Seq[struct{}] {
	return func(yield func(struct{}) bool) {
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
	next := make([]func() (struct{}, bool), m.n)
	stops := make([]func(), m.n)
	live := make([]int, m.n)
	defer func() {
		for _, stop := range stops {
			if stop != nil {
				stop()
			}
		}
	}()
	mem := m.backend.MemSize()
	for i := range procs {
		procs[i] = Proc{id: int32(i), n: m.n, mem: mem}
		next[i], stops[i] = iter.Pull(procs[i].body(pick(i)))
		live[i] = i
	}
	return m.lockstep(procs, next, live)
}

// lockstep is the step loop. Each step it visits the live processors in
// ascending id order and writes the next queued action of each into one
// batch reused for the whole run, resuming a processor first if its queue
// is empty. A processor whose coroutine has finished and whose queue is
// drained halts: it leaves live, and its batch slot goes back to idle. The
// loop then executes the batch and stores each reader's value. The run
// ends at the first step with no live processor left.
//
//pram:hotpath
func (m *Machine) lockstep(procs []Proc, next []func() (struct{}, bool), live []int) *RunReport {
	rep := &RunReport{}
	batch := model.NewBatch(m.n)
	for {
		kept := 0
		for _, id := range live {
			p := &procs[id]
			if p.head == p.tail && next[id] != nil {
				p.head, p.tail = 0, 0
				if _, ok := next[id](); !ok {
					next[id] = nil
				}
			}
			if p.head == p.tail {
				batch[id] = model.Request{Proc: id, Op: model.OpNone}
				if p.err != nil {
					//pram:coldalloc a processor panicked: at most once per processor per run
					rep.Panics = append(rep.Panics, p.err)
				}
				continue
			}
			batch[id] = p.queue[p.head]
			p.head++
			live[kept] = id
			kept++
		}
		live = live[:kept]
		if kept == 0 {
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
