package pramsim_test

import (
	"encoding/json"
	"flag"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	pramsim "repro"
	"repro/internal/model"
	"repro/internal/workloads"
)

// TestFacadeConstructors builds every machine through the public API and
// runs the same trivial program on each.
func TestFacadeConstructors(t *testing.T) {
	const n = 16
	backends := []pramsim.Backend{
		pramsim.NewIdeal(n, n*n, pramsim.CRCWPriority),
		pramsim.NewMPC(n, pramsim.MPCConfig{}),
		pramsim.NewDMMPC(n, pramsim.DMMPCConfig{}),
		pramsim.NewMOT2D(n, pramsim.MOTConfig{}),
		pramsim.NewLuccio(n, pramsim.MOTConfig{}),
		pramsim.NewSchuster(n, pramsim.SchusterConfig{}),
		pramsim.NewHashed(n, pramsim.HashedConfig{}),
	}
	for _, b := range backends {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			rep := pramsim.Run(b, func(p *pramsim.Proc) {
				p.Write(p.ID(), pramsim.Word(p.ID()*2))
			})
			if err := rep.Err(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if got := b.ReadCell(i); got != pramsim.Word(i*2) {
					t.Fatalf("cell %d = %d, want %d", i, got, i*2)
				}
			}
		})
	}
}

func TestFacadeRunEach(t *testing.T) {
	b := pramsim.NewDMMPC(8, pramsim.DMMPCConfig{})
	rep := pramsim.RunEach(b, func(id int) pramsim.Program {
		return func(p *pramsim.Proc) {
			p.Write(id, pramsim.Word(100+id))
		}
	})
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if b.ReadCell(3) != 103 {
		t.Errorf("cell 3 = %d", b.ReadCell(3))
	}
}

func TestFacadeRunWorkload(t *testing.T) {
	w := workloads.PrefixSum(16, 7)
	b := pramsim.NewDMMPC(w.Procs, pramsim.DMMPCConfig{Mode: w.Mode})
	rep, err := pramsim.RunWorkload(w, b)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Steps == 0 || rep.Phases == 0 {
		t.Errorf("degenerate report: %+v", rep)
	}
}

func TestFacadeNamesDescriptive(t *testing.T) {
	checks := map[string]pramsim.Backend{
		"DMMPC": pramsim.NewDMMPC(8, pramsim.DMMPCConfig{}),
		"2DMOT": pramsim.NewMOT2D(8, pramsim.MOTConfig{}),
		"MPC":   pramsim.NewMPC(8, pramsim.MPCConfig{}),
	}
	for frag, b := range checks {
		if !strings.Contains(b.Name(), frag) {
			t.Errorf("name %q lacks %q", b.Name(), frag)
		}
	}
}

// TestFacadeModesExported sanity-checks the re-exported constants map to
// distinct modes.
func TestFacadeModesExported(t *testing.T) {
	modes := []pramsim.Mode{pramsim.EREW, pramsim.CREW, pramsim.CRCWPriority,
		pramsim.CRCWCommon, pramsim.CRCWArbitrary}
	seen := map[pramsim.Mode]bool{}
	for _, m := range modes {
		if seen[m] {
			t.Fatalf("duplicate mode %v", m)
		}
		seen[m] = true
	}
}

// TestMachines builds every entry of the facade's machine table and checks
// that the table passes its arguments through: n processors, at least the
// cells asked for on the machines that take a cell count, and the conflict
// mode, seen through a concurrent write that CRCW-Priority resolves and
// EREW reports.
func TestMachines(t *testing.T) {
	const n, cells, seed = 16, 300, 3
	names := []string{"ideal", "mpc", "dmmpc", "mot2d", "luccio", "schuster", "hashed"}
	if got := len(pramsim.Machines); got != len(names) {
		t.Fatalf("%d machines, want %d", got, len(names))
	}
	sizesFromProcs := map[string]bool{"mpc": true, "dmmpc": true, "mot2d": true, "luccio": true}
	for i, m := range pramsim.Machines {
		if m.Name != names[i] {
			t.Errorf("machine %d is %q, want %q", i, m.Name, names[i])
		}
		t.Run(m.Name, func(t *testing.T) {
			allWrite := func(p *pramsim.Proc) { p.Write(5, pramsim.Word(10+p.ID())) }
			b := m.New(n, cells, pramsim.CRCWPriority, seed)
			if b.Procs() != n {
				t.Errorf("%d processors, want %d", b.Procs(), n)
			}
			if !sizesFromProcs[m.Name] && b.MemSize() < cells {
				t.Errorf("%d cells, want at least %d", b.MemSize(), cells)
			}
			if err := pramsim.Run(b, allWrite).Err(); err != nil {
				t.Fatalf("CRCW-Priority: %v", err)
			}
			if got := b.ReadCell(5); got != 10 {
				t.Errorf("CRCW-Priority: cell 5 = %d, want processor 0's 10", got)
			}
			if pramsim.Run(m.New(n, cells, pramsim.EREW, seed), allWrite).Err() == nil {
				t.Error("EREW: a concurrent write ran without a conflict error")
			}
		})
	}
}

// TestMachinesRefuseMisindexedBatch: a batch is indexed by processor, and
// every machine in the table refuses a batch whose active entry 2 is
// processor 3's request, with a panic that names the entry, rather than
// running it.
func TestMachinesRefuseMisindexedBatch(t *testing.T) {
	const n, cells, seed = 16, 300, 3
	for _, m := range pramsim.Machines {
		t.Run(m.Name, func(t *testing.T) {
			b := m.New(n, cells, pramsim.CRCWPriority, seed)
			batch := model.NewBatch(n)
			batch[2] = model.Request{Proc: 3, Op: model.OpRead, Addr: 1}
			defer func() {
				msg, _ := recover().(string)
				if want := "batch entry 2 holds processor 3's request"; !strings.Contains(msg, want) {
					t.Errorf("panic %q, want one naming %q", msg, want)
				}
			}()
			b.ExecuteStep(batch)
		})
	}
}

// TestLookupMachine: every table name resolves in any case, to its own
// entry; other names do not.
func TestLookupMachine(t *testing.T) {
	for _, m := range pramsim.Machines {
		for _, name := range []string{m.Name, strings.ToUpper(m.Name)} {
			if got, ok := pramsim.LookupMachine(name); !ok || got.Name != m.Name {
				t.Errorf("LookupMachine(%q) = %q, %v; want %q", name, got.Name, ok, m.Name)
			}
		}
	}
	for _, name := range []string{"", "all", "2dmot", "dmmpc "} {
		if got, ok := pramsim.LookupMachine(name); ok {
			t.Errorf("LookupMachine(%q) found %q", name, got.Name)
		}
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_runs.json")

// goldenRun is the observable cost and outcome of one workload run.
type goldenRun struct {
	Skipped       string `json:"skipped,omitempty"`
	Steps         int64  `json:"steps,omitempty"`
	SimTime       int64  `json:"simTime,omitempty"`
	Phases        int64  `json:"phases,omitempty"`
	NetworkCycles int64  `json:"networkCycles,omitempty"`
	CopyAccesses  int64  `json:"copyAccesses,omitempty"`
	MaxContention int    `json:"maxContention,omitempty"`
	Err           string `json:"err,omitempty"`
}

// TestGoldenRunReports pins the RunReport of every standard workload on
// every facade machine: the program coordinator may change how processors
// are scheduled, never what a run costs or how it ends.
func TestGoldenRunReports(t *testing.T) {
	const n, seed = 64, 1
	got := map[string]goldenRun{}
	for _, w := range workloads.All(n, seed) {
		for _, m := range pramsim.Machines {
			b := m.New(w.Procs, w.Cells, w.Mode, seed)
			key := w.Name + "/" + m.Name
			if b.MemSize() < w.Cells {
				got[key] = goldenRun{Skipped: "memory too small"}
				continue
			}
			rep, err := pramsim.RunWorkload(w, b)
			g := goldenRun{
				Steps:         rep.Steps,
				SimTime:       rep.SimTime,
				Phases:        rep.Phases,
				NetworkCycles: rep.NetworkCycles,
				CopyAccesses:  rep.CopyAccesses,
				MaxContention: rep.MaxContention,
			}
			if err != nil {
				g.Err = err.Error()
			}
			got[key] = g
		}
	}
	path := filepath.Join("testdata", "golden_runs.json")
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update to create): %v", err)
	}
	var want map[string]goldenRun
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for _, key := range slices.Sorted(maps.Keys(want)) {
		if g, ok := got[key]; !ok {
			t.Errorf("%s: missing", key)
		} else if g != want[key] {
			t.Errorf("%s: got %+v, want %+v", key, g, want[key])
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d runs, golden has %d", len(got), len(want))
	}
}
