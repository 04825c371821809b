package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/replay"
	"repro/internal/serve"
)

// TestRecordThenVerify: every shape CI records, and a two-stage one,
// replays bit for bit under `replay verify`.
func TestRecordThenVerify(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		name string
		args []string
	}{
		{"e3", []string{"-machine", "dmmpc", "-n", "64", "-steps", "25", "-pattern", "uniform", "-loads", "64"}},
		{"e3pool", []string{"-machine", "dmmpc", "-n", "32", "-engines", "4", "-steps", "10", "-pattern", "banded", "-loads", "32"}},
		{"e5pool", []string{"-machine", "mot2d", "-n", "16", "-engines", "2", "-steps", "10", "-pattern", "banded"}},
		{"luccio", []string{"-machine", "luccio", "-n", "16", "-steps", "10"}},
		{"twostage", []string{"-machine", "dmmpc", "-n", "16", "-steps", "10", "-twostage"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(dir, c.name+".trace")
			if err := cmdRecord(append([]string{"-o", path}, c.args...)); err != nil {
				t.Fatalf("record: %v", err)
			}
			if err := cmdRun([]string{path}, true); err != nil {
				t.Fatalf("verify: %v", err)
			}
		})
	}
}

// TestVerifyServingCapture: `replay verify` reads a serving capture, whose
// rounds list only the scheduled tenants in the order they ran, and
// refuses the same capture with one byte of a step frame changed.
func TestVerifyServingCapture(t *testing.T) {
	mk := func(name string, band int, seed int64) serve.TenantConfig {
		return serve.TenantConfig{Name: name, Band: band, Procs: 8, Arrival: serve.Arrival{Window: 1},
			Source: serve.NewGlobalPatternSource(replay.Uniform, 8, 20, seed)}
	}
	s, err := serve.NewServer(serve.Config{
		Tenants: []serve.TenantConfig{mk("g0", 0, 41), mk("g1", 1, 42), mk("g2", 2, 43)},
		Bands:   3,
		Engines: 2,
		Seed:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	path := filepath.Join(t.TempDir(), "capture.trc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.StartTrace(f); err != nil {
		t.Fatal(err)
	}
	if err := s.ServeAll(100); err != nil {
		t.Fatal(err)
	}
	if err := s.StopTrace(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cmdRun([]string{path}, true); err != nil {
		t.Fatalf("verify of the serving capture: %v", err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x41
	bad := filepath.Join(t.TempDir(), "corrupt.trc")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdRun([]string{bad}, true); err == nil {
		t.Fatal("verify accepted a corrupted serving capture")
	}
}
