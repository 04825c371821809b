package core_test

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestParseKind covers every CLI spelling, including the serving lane's
// fabric names: "" and "complete" select the bipartite DMMPC, "mesh" the
// 2DMOT.
func TestParseKind(t *testing.T) {
	for in, want := range map[string]core.Kind{
		"": core.KindDMMPC, "bipartite": core.KindDMMPC, "dmmpc": core.KindDMMPC,
		"complete": core.KindDMMPC, "e3": core.KindDMMPC,
		"mot2d": core.KindMOT2D, "mot": core.KindMOT2D, "mesh": core.KindMOT2D, "e5": core.KindMOT2D,
		"luccio": core.KindLuccio,
	} {
		got, err := core.ParseKind(in)
		if err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := core.ParseKind("torus"); err == nil {
		t.Error("unknown kind accepted")
	}
}

// TestSpecBuildBudget: a DMMPC with 16000 processors at the default k = 2
// and ε = 1 derives m = 2.56·10^8 variables at r = 7, about 34 GiB of map
// and cells. Build refuses it with the budget error, naming the point's
// size and the budget, before allocating anything large; so does a pool
// whose engines' scratch alone would break the budget.
func TestSpecBuildBudget(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := core.Spec{Kind: core.KindDMMPC, Lanes: 1, Procs: 16000}.Build()
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "1.79e+09 table entries") || !strings.Contains(err.Error(), "budget of 67108864") {
		t.Fatalf("Build of a 16000-processor DMMPC: %v, want the budget error naming both sizes", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
		t.Errorf("the refused build allocated %d bytes", grew)
	}
	if _, err := (core.Spec{Kind: core.KindDMMPC, Lanes: 1, Procs: 8}).BuildPool(1 << 22); err == nil || !strings.Contains(err.Error(), "budget") {
		t.Errorf("BuildPool(2^22) of an 8-processor point: %v, want the budget error", err)
	}
}

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

// TestSpecBuildRejectsNegativeEngines: the engine count is explicit. 0
// means one engine; a negative count is an error from Build (as Lanes)
// and from BuildPool, never a fallback to some other count.
func TestSpecBuildRejectsNegativeEngines(t *testing.T) {
	spec := core.Spec{Kind: core.KindDMMPC, Procs: 8}
	if b, err := spec.BuildPool(0); err != nil || b.Pool.Engines() != 1 || b.Spec.Lanes != 1 {
		t.Fatalf("BuildPool(0) over Lanes 0: %+v, %v; want one engine on one lane", b, err)
	}
	if _, err := spec.BuildPool(-1); err == nil {
		t.Error("BuildPool(-1) built")
	}
	spec.Lanes = -2
	if _, err := spec.Build(); err == nil {
		t.Error("a spec with Lanes -2 built")
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
