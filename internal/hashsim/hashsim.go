// Package hashsim implements the probabilistic baseline the deterministic
// schemes are measured against: shared addresses are scattered over the M
// memory modules by a universal hash function (Mehlhorn & Vishkin 1984;
// Karlin & Upfal 1986), with a single copy per variable (r = 1). A step
// costs as many phases as the most-loaded module receives requests.
//
// On random traffic the expected maximum load is Θ(log n / log log n) —
// fast — but the scheme is only probabilistically good: an adversary who
// knows the hash can concentrate a whole step on one module and force Θ(n)
// time, which is exactly why the paper insists on DETERMINISTIC worst-case
// guarantees. AdversarialBatch constructs such a step for the tests and
// benchmarks.
package hashsim

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/butterfly"
	"repro/internal/model"
	"repro/internal/xmath"
)

// hashP is a prime comfortably above any address space used here.
const hashP = 2147483647 // 2^31 − 1

// Hash is a universal hash h(x) = ((a·x + b) mod p) mod M.
type Hash struct {
	A, B uint64
	M    int
}

// NewHash draws a random member of the family.
func NewHash(modules int, seed int64) Hash {
	rng := rand.New(rand.NewSource(seed))
	return Hash{
		A: uint64(1 + rng.Intn(hashP-1)),
		B: uint64(rng.Intn(hashP)),
		M: modules,
	}
}

// Module returns the module an address hashes to.
func (h Hash) Module(addr model.Addr) int {
	return int((h.A*uint64(addr) + h.B) % hashP % uint64(h.M))
}

// Machine is the hashed-memory machine (model.Backend).
type Machine struct {
	n    int
	mode model.Mode
	h    Hash
	mem  []model.Word
	bfly *butterfly.Network // nil = abstract module-load cost model

	// Step scratch, reused so that the abstract model allocates nothing.
	checker model.ConflictChecker
	vals    []model.Word
	keys    []modAddr

	maxLoadSeen int
}

// modAddr is one request's (module, address) pair: sorted, the pairs group
// each module's distinct variables.
type modAddr struct{ mod, addr int }

// Config sizes the machine.
type Config struct {
	// MemCells is m (default n²).
	MemCells int
	// Modules is M (default n, the classical MPC granularity).
	Modules int
	// Mode is the conflict convention (the zero value is EREW).
	Mode model.Mode
	// Seed draws the hash function.
	Seed int64
	// Butterfly routes each step through an n-input butterfly network
	// with combining and constant queues (Ranade 1987) instead of the
	// abstract per-module load model — the cost becomes round-trip
	// network cycles. Requires Modules ≤ n and n a power of two.
	Butterfly bool
	// QueueCap is the butterfly's per-node queue capacity (default 4).
	QueueCap int
}

// New builds an n-processor hashed machine.
func New(n int, cfg Config) *Machine {
	if cfg.MemCells == 0 {
		cfg.MemCells = n * n
	}
	if cfg.Modules == 0 {
		cfg.Modules = n
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	m := &Machine{
		n:    n,
		mode: cfg.Mode,
		h:    NewHash(cfg.Modules, cfg.Seed),
		mem:  make([]model.Word, cfg.MemCells),
	}
	if cfg.Butterfly {
		if !xmath.IsPow2(n) {
			panic(fmt.Sprintf("hashsim: butterfly needs n=%d to be a power of two", n))
		}
		if cfg.Modules > n {
			panic("hashsim: butterfly places modules on the n outputs; need Modules <= n")
		}
		m.bfly = butterfly.New(n, cfg.QueueCap)
	}
	return m
}

// Name implements model.Backend.
func (mc *Machine) Name() string {
	return fmt.Sprintf("hashed(n=%d, M=%d, r=1)", mc.n, mc.h.M)
}

// MemSize implements model.Backend.
func (mc *Machine) MemSize() int { return len(mc.mem) }

// Procs implements model.Backend.
func (mc *Machine) Procs() int { return mc.n }

// Hash exposes the machine's hash function (the adversary needs it).
func (mc *Machine) Hash() Hash { return mc.h }

// MaxLoadSeen returns the worst per-module load over all executed steps.
func (mc *Machine) MaxLoadSeen() int { return mc.maxLoadSeen }

// ExecuteStep implements model.Backend: semantics are exact; the charged
// time is the maximum number of distinct-variable requests landing on one
// module (modules serve one request per phase; concurrent accesses to the
// SAME variable combine, as in Ranade-style emulations).
func (mc *Machine) ExecuteStep(batch model.Batch) model.StepReport {
	vals, err := mc.checker.ResolveStepInto(mc.vals, mc.mem, batch, mc.mode)
	mc.vals = vals
	keys := mc.keys[:0]
	for _, r := range batch {
		if r.Op != model.OpNone {
			keys = append(keys, modAddr{mc.h.Module(r.Addr), r.Addr})
		}
	}
	mc.keys = keys
	slices.SortFunc(keys, func(a, b modAddr) int {
		if a.mod != b.mod {
			return cmp.Compare(a.mod, b.mod)
		}
		return cmp.Compare(a.addr, b.addr)
	})
	// Walk the sorted pairs, counting each module's distinct variables.
	maxLoad, load := 0, 0
	var accesses int64
	for i, k := range keys {
		switch {
		case i > 0 && k == keys[i-1]:
			continue // the same variable again: combined
		case i > 0 && k.mod == keys[i-1].mod:
			load++
		default:
			load = 1
		}
		accesses++
		maxLoad = max(maxLoad, load)
	}
	if maxLoad > mc.maxLoadSeen {
		mc.maxLoadSeen = maxLoad
	}
	t := int64(maxLoad)
	if batch.Active() > 0 && t == 0 {
		t = 1
	}
	rep := model.StepReport{
		Values:           vals,
		Time:             t,
		Phases:           maxLoad,
		CopyAccesses:     accesses,
		ModuleContention: maxLoad,
		Err:              err,
	}
	if mc.bfly != nil {
		// Physical cost: route the step's requests through the
		// butterfly (one packet per requesting processor; in-network
		// combining absorbs concurrent same-address traffic). Replies
		// retrace the path: double the one-way makespan.
		var pkts []butterfly.Packet
		for _, r := range batch {
			if r.Op == model.OpNone {
				continue
			}
			pkts = append(pkts, butterfly.Packet{
				Src:  r.Proc,
				Dst:  mc.h.Module(r.Addr),
				Addr: r.Addr,
			})
		}
		cycles := 2 * mc.bfly.RouteBatch(pkts)
		rep.Time = cycles
		rep.NetworkCycles = cycles
	}
	return rep
}

// ReadCell implements model.Backend.
func (mc *Machine) ReadCell(a model.Addr) model.Word { return mc.mem[a] }

// LoadCells implements model.Backend.
func (mc *Machine) LoadCells(base model.Addr, vals []model.Word) {
	copy(mc.mem[base:], vals)
}

// AdversarialBatch returns a read step whose n addresses all hash to the
// same module — the worst case that deterministic simulation is designed
// to survive and hashing is not. It scans the address space for the most
// popular module and returns min(n, found) colliding addresses.
func AdversarialBatch(h Hash, n, memCells int) model.Batch {
	byModule := make(map[int][]model.Addr)
	for a := 0; a < memCells; a++ {
		mod := h.Module(a)
		byModule[mod] = append(byModule[mod], a)
	}
	best := -1
	//pram:unordered argmax by (len, lowest mod): the tie-break makes the winner order-free
	for mod, addrs := range byModule {
		if best == -1 || len(addrs) > len(byModule[best]) {
			best = mod
		} else if len(addrs) == len(byModule[best]) && mod < best {
			best = mod
		}
	}
	addrs := byModule[best]
	sort.Ints(addrs)
	batch := model.NewBatch(n)
	for i := 0; i < n && i < len(addrs); i++ {
		batch[i] = model.Request{Proc: i, Op: model.OpRead, Addr: addrs[i]}
	}
	return batch
}
