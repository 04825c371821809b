package quorum

import (
	"fmt"
	"math/bits"
)

// CompleteBipartite is the interconnect of the MPC and DMMPC models: every
// processor reaches every memory module directly (K(n,n) resp. K(n,M)), so
// a phase costs one time unit and the only resource limit is per-module
// bandwidth — each module serves at most Bandwidth requests per phase
// (1 in the classical models).
//
// It holds the package's only arbitration code: a module grants its first
// Bandwidth attempts of a phase in ascending processor order. Loads are
// counted in a phase-local open-addressed module → load table sized from
// the most attempts a phase can have (n on an engine's phases, one per
// processor), never from M, so it stays in L1/L2 however many modules
// the machine has; a phase stamp retires the previous phase's entries
// without clearing. An Engine over a *CompleteBipartite does not call
// RoutePhase: it admits each copy access as it schedules it and touches
// the store cell at once (Engine.bipartitePhase). RoutePhase is the same
// arbitration over a whole phase in processor order, for direct callers
// and wrappers; it is allocation-free in steady state. The returned
// granted slice is reused across calls (see Interconnect).
type CompleteBipartite struct {
	// Bandwidth is the number of copy accesses a module can serve per
	// phase; the MPC/DMMPC definitions use 1, and values below 1 mean 1.
	Bandwidth int
	// PhaseCost is the simulated duration of a phase (default 1).
	PhaseCost int64

	granted []bool

	// The phase-local load table and the state of the open phase.
	table   []moduleLoad // power-of-two size, at least twice the phase's attempts
	shift   uint8        // 32 − log2(len(table)): the hash keeps the top bits
	mask    uint32       // len(table) − 1
	phase   uint32       // stamp of the open phase; 0 marks a never-used slot
	bw      int32        // the open phase's effective bandwidth
	maxLoad int32        // the open phase's largest module load
}

// moduleLoad is one slot of the phase-local load table: how many attempts
// module has seen in the phase stamped phase.
type moduleLoad struct {
	phase  uint32
	module uint32
	load   int32
}

// NewCompleteBipartite returns the standard unit-bandwidth interconnect.
func NewCompleteBipartite() *CompleteBipartite {
	return &CompleteBipartite{Bandwidth: 1, PhaseCost: 1}
}

var _ BandwidthSetter = (*CompleteBipartite)(nil)

// SetBandwidth implements BandwidthSetter (stage-2 pipelining).
func (cb *CompleteBipartite) SetBandwidth(perPhase int) (previous int) {
	previous, cb.Bandwidth = cb.Bandwidth, perPhase
	return previous
}

// beginPhase opens a phase of at most attempts copy accesses: it grows
// the load table if the phase could fill it past half, and retires the
// previous phase's entries by advancing the stamp.
func (cb *CompleteBipartite) beginPhase(attempts int) {
	if 2*attempts > len(cb.table) {
		size := 1 << bits.Len(uint(2*attempts-1))
		cb.table = make([]moduleLoad, size)
		cb.shift = uint8(32 - bits.TrailingZeros(uint(size)))
		cb.mask = uint32(size - 1)
		cb.phase = 0
	}
	cb.phase++
	if cb.phase == 0 { // the stamp wrapped: forget every entry
		clear(cb.table)
		cb.phase = 1
	}
	cb.bw = int32(max(cb.Bandwidth, 1))
	cb.maxLoad = 0
}

// admit counts one attempt at module in the open phase and reports whether
// the module grants it. Callers admit a phase's attempts in ascending
// processor order, so a module grants exactly its Bandwidth
// lowest-processor attempts.
func (cb *CompleteBipartite) admit(module uint32) bool {
	h := (module * 0x9e3779b9) >> cb.shift
	for {
		s := &cb.table[h]
		if s.phase != cb.phase {
			*s = moduleLoad{phase: cb.phase, module: module, load: 1}
			cb.maxLoad = max(cb.maxLoad, 1)
			return true
		}
		if s.module == module {
			s.load++
			cb.maxLoad = max(cb.maxLoad, s.load)
			return s.load <= cb.bw
		}
		h = (h + 1) & cb.mask
	}
}

// endPhase closes the open phase and returns its simulated duration and
// its peak module load; a phase that admitted nothing costs nothing.
func (cb *CompleteBipartite) endPhase() (time int64, maxLoad int) {
	if cb.maxLoad == 0 {
		return 0, 0
	}
	return max(cb.PhaseCost, 1), int(cb.maxLoad)
}

// RoutePhase implements Interconnect: per module, the Bandwidth attempts
// with the lowest processor ids are granted (deterministic priority
// arbitration), the rest are refused and will be retried by the engine.
// The attempts must arrive in non-decreasing Proc order, as the engine
// schedules them; it panics on a pair that does not, naming it.
func (cb *CompleteBipartite) RoutePhase(attempts []Attempt) ([]bool, int64, int) {
	cb.granted = grow(cb.granted, len(attempts))
	granted := cb.granted
	cb.beginPhase(len(attempts))
	for i := range attempts {
		if i > 0 && attempts[i].Proc < attempts[i-1].Proc {
			panic(fmt.Sprintf("quorum: attempt %d (processor %d) follows processor %d: a phase must arrive in processor order",
				i, attempts[i].Proc, attempts[i-1].Proc))
		}
		granted[i] = cb.admit(uint32(attempts[i].Module))
	}
	time, maxLoad := cb.endPhase()
	return granted, time, maxLoad
}
