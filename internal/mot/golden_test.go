package mot

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/quorum"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenPhase is the recorded outcome of one RoutePhase call.
type goldenPhase struct {
	Granted []bool `json:"granted"`
	Cycles  int64  `json:"cycles"`
	MaxLoad int    `json:"maxLoad"`
}

// goldenNetRun is the recorded outcome of a whole scenario.
type goldenNetRun struct {
	Phases []goldenPhase `json:"phases"`
	Stats  Stats         `json:"stats"`
}

// netScenario drives a network through a deterministic sequence of phases
// drawn from seed and records every observable output. Each phase is
// routed in processor order, the order a phase arrives in, and each grant
// is recorded under its attempt's draw position. It is the
// implementation-independent contract the router refactors must preserve.
func netScenario(side int, pl Placement, pol Policy, dualRail bool, seed int64) goldenNetRun {
	nw := NewNetwork(side, pl, Config{Policy: pol, DualRail: dualRail})
	rng := rand.New(rand.NewSource(seed))
	var tr goldenNetRun
	banks := side
	if dualRail {
		banks = 2 * side
	}
	for phase := 0; phase < 6; phase++ {
		k := 1 + rng.Intn(side)
		attempts := make([]quorum.Attempt, 0, k)
		used := map[int]bool{}
		for i := 0; i < k; i++ {
			p := rng.Intn(side)
			if used[p] {
				continue // one attempt per processor, like the engine
			}
			used[p] = true
			attempts = append(attempts, quorum.Attempt{
				Proc:   p,
				Module: rng.Intn(banks),
				Var:    rng.Intn(1024),
				Copy:   rng.Intn(4),
				Write:  rng.Intn(2) == 0,
			})
		}
		perm := byProc(attempts)
		routed := make([]quorum.Attempt, len(attempts))
		for j, i := range perm {
			routed[j] = attempts[i]
		}
		granted, cycles, load := nw.RoutePhase(routed)
		g := make([]bool, len(granted))
		for j, i := range perm {
			g[i] = granted[j]
		}
		tr.Phases = append(tr.Phases, goldenPhase{Granted: g, Cycles: cycles, MaxLoad: load})
	}
	tr.Stats = nw.Stats()
	return tr
}

// TestGoldenRoutePhase locks RoutePhase's grants, cycle counts, loads and
// stats to the recorded behavior of the reference implementation, across
// placements, policies, dual-rail and seeds.
func TestGoldenRoutePhase(t *testing.T) {
	type cfg struct {
		name     string
		side     int
		pl       Placement
		pol      Policy
		dualRail bool
	}
	cfgs := []cfg{
		{"leaves-drop", 16, ModulesAtLeaves, DropOnCollision, false},
		{"leaves-queue", 16, ModulesAtLeaves, QueueOnCollision, false},
		{"leaves-drop-dual", 16, ModulesAtLeaves, DropOnCollision, true},
		{"leaves-queue-dual", 16, ModulesAtLeaves, QueueOnCollision, true},
		{"roots-drop", 16, ModulesAtRoots, DropOnCollision, false},
		{"roots-queue", 16, ModulesAtRoots, QueueOnCollision, false},
	}
	got := map[string]goldenNetRun{}
	for _, c := range cfgs {
		for _, seed := range []int64{1, 7, 42} {
			got[fmt.Sprintf("%s/seed=%d", c.name, seed)] =
				netScenario(c.side, c.pl, c.pol, c.dualRail, seed)
		}
	}
	path := filepath.Join("testdata", "golden_routephase.json")
	if *updateGolden {
		writeGolden(t, path, got)
		return
	}
	var want map[string]goldenNetRun
	readGolden(t, path, &want)
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("scenario %s missing", name)
			continue
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("scenario %s diverged from golden:\n got %+v\nwant %+v", name, g, w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("scenario count %d != golden %d", len(got), len(want))
	}
}

func writeGolden(t *testing.T, path string, v any) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", path)
}

func readGolden(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update to create): %v", err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatal(err)
	}
}
