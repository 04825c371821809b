// Package mpc implements the module parallel computer baseline: n RAM
// processors, each owning one of M = n memory modules, interconnected by
// the complete graph (Mehlhorn & Vishkin 1984). P-RAM steps are simulated
// with the deterministic majority-rule scheme of Upfal & Wigderson (1987),
// whose Lemma 1 forces the redundancy to grow as Θ(log m) — the cost the
// paper's fine-grain DMMPC eliminates.
package mpc

import (
	"fmt"

	"repro/internal/memmap"
	"repro/internal/model"
	"repro/internal/quorum"
)

// Machine is an MPC running the Upfal–Wigderson simulation.
type Machine struct {
	*quorum.Machine
	P memmap.Params
}

// Config tunes machine construction.
type Config struct {
	// K is the memory-size exponent m = n^K (default 2).
	K float64
	// Mode is the P-RAM conflict convention. The zero value is EREW.
	Mode model.Mode
	// Seed draws the memory map (default 1).
	Seed int64
}

func (c *Config) fill() {
	if c.K == 0 {
		c.K = 2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// New builds an n-processor MPC with Lemma 1 (Θ(log m)-redundancy)
// parameters and a seeded random memory map.
func New(n int, cfg Config) *Machine {
	cfg.fill()
	p := memmap.LemmaOne(n, cfg.K)
	mp := memmap.Generate(p, cfg.Seed)
	st := quorum.NewStore(mp)
	name := fmt.Sprintf("MPC-UW87(n=%d, m=%d, r=%d)", n, p.Mem, p.R())
	return &Machine{
		Machine: quorum.NewMachine(name, n, cfg.Mode, st, quorum.NewCompleteBipartite()),
		P:       p,
	}
}
