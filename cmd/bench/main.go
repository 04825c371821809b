// Command bench records the root package's benchmarks (bench_test.go, the
// repo's one benchmark fixture table) into a BENCH_<date>.json snapshot:
// wall-clock ns/op, allocs/op and B/op per benchmark, plus the
// simulated-time counters (time, phases, network cycles, copy accesses) of
// one representative step, which the step benchmarks report as the metrics
// sim-time, sim-phases, sim-cycles and sim-copies. A snapshot is one run of
//
//	go test -run '^$' -bench . -benchmem -count RUNS -benchtime BENCHTIME -timeout 0 repro
//
// of which it keeps, per benchmark, the repeat with the lowest ns/op. If go
// test fails, bench exits non-zero and writes no snapshot. Successive
// snapshots form the repo's performance lineage.
//
// It also implements the snapshot-lineage regression gate:
//
//	go run ./cmd/bench -diff [-out DIR] [-threshold 0.10]
//
// compares the newest two BENCH_<date>.json snapshots in DIR and exits
// non-zero if any benchmark that was allocation-free in the older snapshot
// started allocating or slowed down by more than the threshold.
//
// Usage:
//
//	go run ./cmd/bench [-out DIR] [-benchtime 1s] [-runs 3] [-diff]
//
// To profile a benchmark the lineage flagged, ask go test for it directly,
// for example:
//
//	go test -run '^$' -bench 'E3DMMPCStep/n=1024' -cpuprofile cpu.out -memprofile mem.out .
//	go tool pprof cpu.out
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// Result is one benchmark measurement.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"nsPerOp"`
	AllocsPerOp int64   `json:"allocsPerOp"`
	BytesPerOp  int64   `json:"bytesPerOp"`
	// Simulated-time counters of one representative simulated step
	// (zero for micro-benchmarks without a step structure).
	SimTime       int64 `json:"simTime,omitempty"`
	SimPhases     int   `json:"simPhases,omitempty"`
	SimCycles     int64 `json:"simCycles,omitempty"`
	SimCopyAccess int64 `json:"simCopyAccesses,omitempty"`
}

// Snapshot is the emitted file layout. NumCPU and GOMAXPROCS describe the
// host shape the numbers were measured on: -diff compares ns/op only
// advisorily when the shape drifted between two snapshots (a 4-core
// runner and a 1-core container measure parallel sweeps incomparably),
// while allocation regressions stay hard failures — allocs/op is
// host-independent.
type Snapshot struct {
	Date       string `json:"date"`
	GoVersion  string `json:"goVersion"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"numCPU"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
	// Calibration is the minimum ns/op of a fixed pure-CPU reference loop
	// (calibrate), measured alongside the benchmarks. Core counts don't
	// capture how FAST a container is — the same image lands on hosts
	// whose scalar speed differs by tens of percent — so -diff divides
	// ns/op comparisons by the calibration ratio between two snapshots.
	// Snapshots predating the field compare advisorily (see diff.go).
	Calibration float64  `json:"calibrationNsPerOp,omitempty"`
	Results     []Result `json:"results"`
	// Baseline carries the pre-optimization (seed) numbers of the two
	// acceptance benchmarks for easy speedup computation.
	Baseline map[string]float64 `json:"baselineNsPerOp,omitempty"`
}

// seedBaseline records the seed-tree numbers measured before the
// zero-allocation hot-path rewrite (Xeon 2.10GHz, go1.24, -benchtime=2s).
var seedBaseline = map[string]float64{
	"E3DMMPCStep/n=1024": 1828312,
	"E5MOT2DStep/n=256":  13714533,
}

// snapshotDate renders a snapshot's lineage date in UTC: CI runners (UTC)
// and dev containers in other timezones must agree on what "today" is, or
// the BENCH_<date>.json lineage interleaves out of chronological order and
// -diff gates the wrong pair.
func snapshotDate(now time.Time) string { return now.UTC().Format("2006-01-02") }

// calibrationSink keeps the calibration loop's result observable so the
// compiler cannot delete the loop.
var calibrationSink uint64

// calibrate measures the host's scalar speed: a fixed 32768-round mix64
// loop, pure ALU work with no memory traffic, repeated runs times with the
// minimum kept (the same estimator as every other snapshot number). The
// result anchors cross-snapshot ns/op comparisons to the machine the
// numbers were taken on.
func calibrate(runs int) float64 {
	best := math.Inf(1)
	for run := 0; run < runs; run++ {
		br := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				x := uint64(0x9E3779B97F4A7C15)
				for j := 0; j < 1<<15; j++ {
					x ^= x >> 33
					x *= 0xFF51AFD7ED558CCD
					x ^= x >> 29
				}
				calibrationSink = x
			}
		})
		best = math.Min(best, float64(br.NsPerOp()))
	}
	return best
}

// procsSuffix is the -GOMAXPROCS suffix go test appends to a benchmark
// name when GOMAXPROCS is not 1.
var procsSuffix = regexp.MustCompile(`-\d+$`)

// parseLine parses one benchmark result line,
//
//	Benchmark<name>[-GOMAXPROCS] <iterations> <value> <unit> ...
//
// mapping the sim-* metrics onto the snapshot's sim counters and ignoring
// units it does not record.
func parseLine(line string) (Result, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 || !strings.HasPrefix(f[0], "Benchmark") {
		return Result{}, false
	}
	iters, err := strconv.Atoi(f[1])
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: procsSuffix.ReplaceAllString(strings.TrimPrefix(f[0], "Benchmark"), ""), Iterations: iters}
	for i := 2; i < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Result{}, false
		}
		n := int64(math.Round(v))
		switch f[i+1] {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = n
		case "allocs/op":
			r.AllocsPerOp = n
		case "sim-time":
			r.SimTime = n
		case "sim-phases":
			r.SimPhases = int(n)
		case "sim-cycles":
			r.SimCycles = n
		case "sim-copies":
			r.SimCopyAccess = n
		}
	}
	return r, true
}

// parseBench reads a `go test -bench -benchmem` transcript. It returns one
// Result per benchmark, in order of first appearance, holding the repeat
// with the lowest ns/op together with that repeat's own iterations,
// allocs/op, B/op and sim counters. On shared or virtualized hosts the
// distribution of a deterministic benchmark is the true cost plus
// one-sided noise bursts, so the minimum is the stable estimator. A
// transcript that reports a failure is an error.
func parseBench(transcript []byte) ([]Result, error) {
	var results []Result
	index := map[string]int{}
	for _, line := range strings.Split(string(transcript), "\n") {
		if strings.Contains(line, "--- FAIL") || line == "FAIL" || strings.HasPrefix(line, "FAIL\t") ||
			strings.HasPrefix(line, "panic: ") {
			return nil, fmt.Errorf("benchmark run failed: %s", strings.TrimSpace(line))
		}
		r, ok := parseLine(line)
		if !ok {
			continue
		}
		if i, seen := index[r.Name]; !seen {
			index[r.Name] = len(results)
			results = append(results, r)
		} else if r.NsPerOp < results[i].NsPerOp {
			results[i] = r
		}
	}
	if len(results) == 0 {
		return nil, errors.New("no benchmark results in the go test output")
	}
	return results, nil
}

// record parses a go test transcript into snap.Results and writes snap to
// a new snapshot file in dir, returning its path. testErr is go test's
// exit status: a failed run, or a transcript that reports a failure,
// writes nothing.
func record(dir string, snap *Snapshot, transcript []byte, testErr error) (string, error) {
	if testErr != nil {
		return "", fmt.Errorf("go test: %w", testErr)
	}
	results, err := parseBench(transcript)
	if err != nil {
		return "", err
	}
	snap.Results = results
	data, err := json.MarshalIndent(snap, "", " ")
	if err != nil {
		return "", err
	}
	path := snapshotPath(dir, snap.Date)
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	testing.Init() // register test.* flags so calibrate runs at -benchtime
	out := flag.String("out", ".", "directory for the BENCH_<date>.json snapshot")
	benchtime := flag.String("benchtime", "1s", "go test -benchtime per repeat: a duration, or Nx for N iterations")
	diff := flag.Bool("diff", false, "compare the newest two snapshots in -out and exit 1 on zero-alloc regressions")
	threshold := flag.Float64("threshold", 0.10, "ns/op regression tolerance for -diff (0.10 = 10%)")
	runs := flag.Int("runs", 3, "repeats per benchmark (go test -count); the fastest is recorded")
	flag.Parse()
	if *diff {
		os.Exit(runDiff(*out, *threshold))
	}
	if *runs < 1 {
		fmt.Fprintln(os.Stderr, "-runs must be at least 1")
		os.Exit(2)
	}
	if err := flag.Set("test.benchtime", *benchtime); err != nil {
		fmt.Fprintln(os.Stderr, "benchtime:", err)
		os.Exit(1)
	}

	snap := Snapshot{
		Date:        snapshotDate(time.Now()),
		GoVersion:   runtime.Version(),
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Calibration: calibrate(*runs),
		Baseline:    seedBaseline,
	}
	fmt.Printf("host calibration: %.0f ns/op\n", snap.Calibration)

	// The root package by import path, so bench works from any directory
	// of the module.
	var transcript bytes.Buffer
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", ".", "-benchmem",
		"-count", strconv.Itoa(*runs), "-benchtime", *benchtime, "-timeout", "0", "repro")
	cmd.Stdout = io.MultiWriter(os.Stdout, &transcript)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	path, err := record(*out, &snap, transcript.Bytes(), runErr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println("wrote", path)
	for _, r := range snap.Results {
		line := fmt.Sprintf("%-34s %12.0f ns/op %8d allocs/op", r.Name, r.NsPerOp, r.AllocsPerOp)
		if base, ok := seedBaseline[r.Name]; ok {
			line += fmt.Sprintf("   %.2fx vs seed", base/r.NsPerOp)
		}
		fmt.Println(line)
	}
}
