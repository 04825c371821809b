package core

import (
	"repro/internal/memmap"
	"repro/internal/model"
	"repro/internal/quorum"
)

// Config tunes construction of the Theorem 2 machine.
type Config struct {
	// K is the memory-size exponent m = n^K (default 2).
	K float64
	// Eps is the granularity exponent: the DMMPC uses M = n^(1+Eps)
	// modules (default 1, i.e. M = n²).
	Eps float64
	// Mode is the P-RAM conflict convention. The zero value is EREW.
	Mode model.Mode
	// Seed draws the memory map (default 1).
	Seed int64
	// TwoStage selects the faithful UW'87 two-stage schedule (bounded
	// stage 1, pipelined stage 2) instead of the plain round-robin loop.
	TwoStage bool
}

// DMMPC is the distributed-memory module parallel computer of Section 2
// running the constant-redundancy simulation of Theorem 2.
type DMMPC struct {
	*quorum.Machine
	P memmap.Params
}

// NewDMMPC builds the Theorem 2 machine: M = n^(1+ε) modules, constant
// quorum parameter c from Lemma 2, seeded random memory map. It panics on
// an infeasible parameter point; Spec.Build reports it as an error.
func NewDMMPC(n int, cfg Config) *DMMPC {
	b := mustBuild(Spec{Kind: KindDMMPC, Lanes: 1, Procs: n, Mode: cfg.Mode, Seed: cfg.Seed,
		KExp: cfg.K, Gran: cfg.Eps, TwoStage: cfg.TwoStage})
	return &DMMPC{Machine: b.Machine, P: b.Params}
}

// mustBuild is Build for the panicking single-machine constructors.
func mustBuild(s Spec) *Built {
	b, err := s.Build()
	if err != nil {
		panic(err)
	}
	return b
}
