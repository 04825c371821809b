package pramsim_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"maps"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/memmap"
	"repro/internal/model"
	"repro/internal/mot"
	"repro/internal/quorum"
	"repro/internal/replay"
	"repro/internal/serve"
)

// constructPins is what every construction entry point builds, one line
// per case: the single machine's name (pools and servers have none), the
// parameter point (N, M, Mem, C), the grid side, the variable count, the
// fresh store's fingerprint, an FNV-1a hash of the memory map's copy table
// and, where the case records, an FNV-1a hash of the captured trace bytes.
// The literals were captured before machine construction moved behind
// core.Spec; any drift in defaulting, map derivation, banding or the trace
// header shows up here.
var constructPins = map[string]string{
	"dmmpc":              `name="DMMPC(n=16, M=256, r=7)" N=16 M=256 Mem=256 C=4 side=0 mem=256 fp=e0820b281ad2e325 map=bb502b007309631a`,
	"dmmpc-crcw-seed3":   `name="DMMPC(n=16, M=256, r=7)" N=16 M=256 Mem=256 C=4 side=0 mem=256 fp=e0820b281ad2e325 map=9d53c58323ab17a0`,
	"dmmpc-twostage":     `name="DMMPC(n=16, M=256, r=7)" N=16 M=256 Mem=256 C=4 side=0 mem=256 fp=e0820b281ad2e325 map=bb502b007309631a`,
	"luccio":             `name="2DMOT-Luccio90(n=16, side=16, r=9)" N=16 M=16 Mem=256 C=5 side=16 mem=256 fp=be7134315f056325 map=5bc2aafce6c766be`,
	"mot2d":              `name="2DMOT(n=16, side=64, r=15)" N=16 M=64 Mem=256 C=8 side=64 mem=256 fp=3fd4ebc4ab9ce325 map=2d1de35c8e225d2d`,
	"mot2d-dualrail":     `name="2DMOT(n=16, side=64, r=7, dual-rail)" N=16 M=128 Mem=256 C=4 side=64 mem=256 fp=e0820b281ad2e325 map=d0618496cc77f98f`,
	"mot2d-k1.5-d1.8":    `name="2DMOT(n=16, side=64, r=13)" N=16 M=64 Mem=64 C=7 side=64 mem=64 fp=82d013d869743325 map=da157b9ae671b5c3`,
	"mot2d-queue":        `name="2DMOT(n=16, side=64, r=15)" N=16 M=64 Mem=256 C=8 side=64 mem=256 fp=3fd4ebc4ab9ce325 map=2d1de35c8e225d2d`,
	"serve-bipartite-K1": `name="" N=64 M=4096 Mem=4096 C=4 side=0 mem=4096 fp=7e745f7b6f2e2325 map=76b3bae96ef13595 trace=02e0d3560f4457a9`,
	"serve-bipartite-K2": `name="" N=64 M=4096 Mem=4096 C=4 side=0 mem=4096 fp=7e745f7b6f2e2325 map=76b3bae96ef13595 trace=8cfbea056abc7313`,
	"serve-mot2d-K1":     `name="" N=64 M=256 Mem=512 C=12 side=256 mem=512 fp=aadedb2544aba325 map=968c52fb5acc0144 trace=c818603af66818cf`,
	"serve-mot2d-K2":     `name="" N=64 M=256 Mem=512 C=12 side=256 mem=512 fp=aadedb2544aba325 map=968c52fb5acc0144 trace=fd60a3e472dda4e5`,
	"spec-dmmpc-L1":      `name="DMMPC(n=16, M=256, r=7)" N=16 M=256 Mem=256 C=4 side=0 mem=256 fp=e0820b281ad2e325 map=bb502b007309631a trace=2e2f9c2d67109380`,
	"spec-dmmpc-L4":      `name="" N=32 M=1024 Mem=1024 C=4 side=0 mem=1024 fp=045b5aaabee52325 map=ea9367adaccb7eae trace=19c84fc9175fa81b`,
	"spec-mot2d-L2":      `name="" N=16 M=64 Mem=256 C=8 side=64 mem=256 fp=3fd4ebc4ab9ce325 map=c5439a69a60275e2 trace=918551898f8ad93b`,
}

// pinLine renders one construction pin.
func pinLine(name string, p memmap.Params, side, mem int, st *quorum.Store, fp uint64, trace []byte) string {
	mp := st.Map()
	var b [4]byte
	mh := fnv.New64a()
	for v := 0; v < mp.Vars(); v++ {
		for _, mod := range mp.Copies(v) {
			binary.LittleEndian.PutUint32(b[:], mod)
			mh.Write(b[:])
		}
	}
	s := fmt.Sprintf("name=%q N=%d M=%d Mem=%d C=%d side=%d mem=%d fp=%016x map=%016x",
		name, p.N, p.M, p.Mem, p.C, side, mem, fp, mh.Sum64())
	if trace != nil {
		h := fnv.New64a()
		h.Write(trace)
		s += fmt.Sprintf(" trace=%016x", h.Sum64())
	}
	return s
}

// TestConstructionPins pins every construction entry point and shape: the
// core constructors with their defaults and options, spec builds of single
// machines and pools (each recording three generated steps), and serving
// deployments on both fabrics at two engine counts (each capturing a
// two-tenant run through StartTrace).
func TestConstructionPins(t *testing.T) {
	got := map[string]string{}
	const n = 16
	pinMachine := func(name string, m *quorum.Machine, p memmap.Params, side int) {
		got[name] = pinLine(m.Name(), p, side, m.MemSize(), m.Store(), m.Store().Fingerprint(), nil)
	}
	for name, cfg := range map[string]core.Config{
		"dmmpc":            {},
		"dmmpc-twostage":   {TwoStage: true},
		"dmmpc-crcw-seed3": {Mode: model.CRCWPriority, Seed: 3},
	} {
		d := core.NewDMMPC(n, cfg)
		pinMachine(name, d.Machine, d.P, 0)
	}
	for name, cfg := range map[string]core.MOTConfig{
		"mot2d":           {},
		"mot2d-dualrail":  {DualRail: true},
		"mot2d-queue":     {Policy: mot.QueueOnCollision},
		"mot2d-k1.5-d1.8": {K: 1.5, Delta: 1.8},
	} {
		d := core.NewMOT2D(n, cfg)
		pinMachine(name, d.Machine, d.P, d.Side)
	}
	lu := core.NewLuccio(n, core.MOTConfig{})
	pinMachine("luccio", lu.Machine, lu.P, lu.Side)

	for _, c := range []struct {
		name    string
		spec    core.Spec
		pattern replay.Pattern
	}{
		{"spec-dmmpc-L1", core.Spec{Kind: core.KindDMMPC, Lanes: 1, Procs: n, Mode: model.CRCWPriority}, replay.Uniform},
		{"spec-dmmpc-L4", core.Spec{Kind: core.KindDMMPC, Lanes: 4, Procs: 8, Mode: model.CRCWPriority}, replay.Banded},
		{"spec-mot2d-L2", core.Spec{Kind: core.KindMOT2D, Lanes: 2, Procs: 8, Mode: model.CRCWPriority}, replay.Banded},
	} {
		b, err := c.spec.Build()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		name := ""
		if b.Machine != nil {
			name = b.Machine.Name()
		}
		fp := b.Store.Fingerprint()
		var buf bytes.Buffer
		rec, err := replay.NewRecorder(&buf, b)
		if err != nil {
			t.Fatal(err)
		}
		gen := replay.NewGenerator(c.pattern, c.spec.Lanes, c.spec.Procs, b.Params.Mem, 5)
		for s := 0; s < 3; s++ {
			b.ExecuteSteps(gen.Step(s))
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		got[c.name] = pinLine(name, b.Params, b.Side, b.Lane(0).MemSize(), b.Store, fp, buf.Bytes())
	}

	for _, ic := range []struct {
		name string
		kind core.Kind
	}{{"bipartite", core.KindDMMPC}, {"mot2d", core.KindMOT2D}} {
		for _, k := range []int{1, 2} {
			cfg := serve.Config{
				Tenants: []serve.TenantConfig{
					{Name: "u", Band: 0, Procs: 32, Arrival: serve.Arrival{Window: 1},
						Source: serve.NewPatternSource(replay.Uniform, 32, 3, 11)},
					{Name: "h", Band: 1, Procs: 16, Arrival: serve.Arrival{Window: 1},
						Source: serve.NewPatternSource(replay.Hotspot, 16, 3, 12)},
				},
				Bands:        2,
				Engines:      k,
				Seed:         5,
				Interconnect: ic.kind,
			}
			s, err := serve.NewServer(cfg)
			if err != nil {
				t.Fatalf("%v K=%d: %v", ic.kind, k, err)
			}
			fp := s.Fingerprint()
			var buf bytes.Buffer
			if err := s.StartTrace(&buf); err != nil {
				t.Fatal(err)
			}
			if err := s.ServeAll(100); err != nil {
				t.Fatal(err)
			}
			if err := s.StopTrace(); err != nil {
				t.Fatal(err)
			}
			s.Close()
			name := fmt.Sprintf("serve-%s-K%d", ic.name, k)
			got[name] = pinLine("", s.Params(), s.Side(), s.Params().Mem, s.Pool().Store(), fp, buf.Bytes())
		}
	}

	for _, name := range slices.Sorted(maps.Keys(got)) {
		if want, ok := constructPins[name]; !ok || got[name] != want {
			t.Errorf("%s:\n got  %s\n want %s", name, got[name], want)
		}
	}
	for name := range constructPins {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: pinned but not built", name)
		}
	}
}
