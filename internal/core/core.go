// Package core implements the paper's contribution: deterministic P-RAM
// simulation with constant redundancy on fine-grain distributed-memory
// machines.
//
// Two machines are provided:
//
//   - The DMMPC of Section 2 (Theorem 2): n processors and M = n^(1+ε)
//     memory modules joined by the complete bipartite graph K(n,M). With
//     the Lemma 2 memory map, the Upfal–Wigderson majority-rule protocol
//     runs with a CONSTANT number of copies per variable — redundancy
//     r = O((k−ε)/ε) = O(1) — and O(log n) phases per P-RAM step.
//
//   - The DMBDN of Section 3 (Theorem 3): the same protocol on a feasible
//     bounded-degree machine, a √M × √M two-dimensional mesh of trees with
//     the memory modules at the LEAVES (not at the processors, as in
//     Luccio et al. 1990) and the n processors at tree roots. Requests
//     route down a row tree, up and down a column tree; the √M columns act
//     as n^(1+ε') independent banks, so Lemma 2 again yields constant
//     redundancy, at O(log²n / log log n) time per step.
//
// Both expose model.Backend, so any P-RAM program run by internal/machine
// executes on them unchanged. The Luccio et al. (1990) baseline, modules
// at the tree roots with Lemma 1 redundancy, is provided for comparison.
//
// # One spec, one build path
//
// A Spec names one parameter point — machine kind, lane count, processors
// per lane, conflict mode, seed, the memory and granularity exponents and
// the protocol knobs — and Spec.Build is the only path from such a point
// to machines. It normalizes the defaults (k = 2, ε = 1, δ = 2, seed 1),
// derives the Lemma 2 / Theorem 3 / Lemma 1 parameters at Lanes·Procs
// processors, draws the map banded Lanes ways, and wires a single Machine
// (Lanes == 1) or a Lanes-engine quorum.Pool, reporting infeasible points
// as errors. Spec.BuildPool is the same build for a pool whose engine
// count differs from its banding (the serving front end's tenants on K
// shards). NewDMMPC, NewMOT2D and NewLuccio are Config front ends over
// Build that panic on an error; trace headers (internal/replay) and
// serving deployments (internal/serve) carry a Spec.
package core
