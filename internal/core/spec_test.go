package core_test

import (
	"strings"
	"testing"

	"repro/internal/core"
)

// TestSpecBuildRejectsOversizedRedundancy: ε = 0.1 at n = 64 asks Lemma 2
// for r = 77 copies, more than the engine's 64-bit copy mask holds. Build
// reports it as an error at construction, single machine and pool alike,
// instead of handing back a machine that panics at its first step.
func TestSpecBuildRejectsOversizedRedundancy(t *testing.T) {
	spec := core.Spec{Kind: core.KindDMMPC, Lanes: 1, Procs: 64, Gran: 0.1}
	if b, err := spec.Build(); err == nil || !strings.Contains(err.Error(), "redundancy 77") {
		t.Errorf("Build: built=%v err=%v, want a redundancy error", b != nil, err)
	}
	if b, err := spec.BuildPool(2); err == nil || !strings.Contains(err.Error(), "redundancy 77") {
		t.Errorf("BuildPool: built=%v err=%v, want a redundancy error", b != nil, err)
	}
}

// TestSpecBuildShapes: Lanes == 1 builds a single machine, Lanes > 1 a
// pool of that many engines, and BuildPool a pool of its own engine count
// over the Lanes-banded map; the Luccio baseline takes a single lane only.
func TestSpecBuildShapes(t *testing.T) {
	single, err := core.Spec{Kind: core.KindMOT2D, Lanes: 1, Procs: 8}.Build()
	if err != nil || single.Machine == nil || single.Pool != nil {
		t.Fatalf("Lanes 1: %+v, %v", single, err)
	}
	pool, err := core.Spec{Kind: core.KindDMMPC, Lanes: 4, Procs: 8}.Build()
	if err != nil || pool.Pool == nil || pool.Pool.Engines() != 4 {
		t.Fatalf("Lanes 4: %+v, %v", pool, err)
	}
	wide, err := core.Spec{Kind: core.KindDMMPC, Lanes: 4, Procs: 8}.BuildPool(2)
	if err != nil || wide.Pool.Engines() != 2 || wide.Params != pool.Params ||
		wide.Store.Fingerprint() != pool.Store.Fingerprint() {
		t.Fatalf("BuildPool(2) over 4 lanes: %+v, %v", wide, err)
	}
	if _, err := (core.Spec{Kind: core.KindLuccio, Lanes: 2, Procs: 8}).Build(); err == nil {
		t.Error("a 2-lane Luccio spec built")
	}
	if _, err := (core.Spec{Kind: core.KindLuccio, Lanes: 1, Procs: 8}).BuildPool(1); err == nil {
		t.Error("a Luccio pool built")
	}
	if _, err := (core.Spec{Kind: core.Kind(9), Lanes: 1, Procs: 8}).Build(); err == nil {
		t.Error("an unknown kind built")
	}
}
