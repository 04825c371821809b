package main

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// transcript is `go test -run '^$' -bench . -benchmem -count 3` output
// from the root package, trimmed to a few benchmarks. The
// QuorumWriteBatch lines come from a GOMAXPROCS=1 run, so they carry no
// -N suffix.
const transcript = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor
BenchmarkE3DMMPCStep/n=64-2          	      20	     11892 ns/op	       442.0 sim-copies	         7.000 sim-phases	         7.000 sim-time	       0 B/op	       0 allocs/op
BenchmarkE3DMMPCStep/n=64-2          	      20	      6754 ns/op	       442.0 sim-copies	         7.000 sim-phases	         7.000 sim-time	       0 B/op	       0 allocs/op
BenchmarkE3DMMPCStep/n=64-2          	      20	      6332 ns/op	       442.0 sim-copies	         7.000 sim-phases	         7.000 sim-time	       0 B/op	       0 allocs/op
BenchmarkE13ReplayStep/n=1024-2      	      20	    858488 ns/op	     12873 sim-copies	      1105 sim-cycles	        13.00 sim-phases	      1105 sim-time	       2 B/op	       0 allocs/op
BenchmarkE13ReplayStep/n=1024-2      	      20	    861966 ns/op	     12873 sim-copies	      1105 sim-cycles	        13.00 sim-phases	      1105 sim-time	       2 B/op	       0 allocs/op
BenchmarkE13ReplayStep/n=1024-2      	      20	    875123 ns/op	     12873 sim-copies	      1105 sim-cycles	        13.00 sim-phases	      1105 sim-time	       2 B/op	       0 allocs/op
BenchmarkE14ServeStep/T=2/K=2-2      	   61424	     18102 ns/op	       0 B/op	       0 allocs/op
BenchmarkE14ServeStep/T=2/K=2-2      	   69070	     17380 ns/op	       0 B/op	       0 allocs/op
BenchmarkE14ServeStep/T=2/K=2-2      	   68530	     17503 ns/op	       0 B/op	       0 allocs/op
BenchmarkProgramBitonicSortDMMPC-2   	      20	  26482306 ns/op	    120373 ns/step	 1067504 B/op	   13330 allocs/op
BenchmarkProgramBitonicSortDMMPC-2   	      20	  26376552 ns/op	    119892 ns/step	 1066740 B/op	   13328 allocs/op
BenchmarkProgramBitonicSortDMMPC-2   	      20	  26446399 ns/op	    120210 ns/step	 1067032 B/op	   13329 allocs/op
BenchmarkQuorumWriteBatch/n=256      	   40210	     29904 ns/op	       0 B/op	       0 allocs/op
BenchmarkQuorumWriteBatch/n=256      	   39866	     29512 ns/op	       0 B/op	       0 allocs/op
BenchmarkQuorumWriteBatch/n=256      	   40415	     30177 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	repro	21.617s
`

// failed is the same run with one benchmark failing: go test prints no
// result line for it and exits non-zero.
const failed = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor
BenchmarkE3DMMPCStep/n=64-2          	      20	     11892 ns/op	       442.0 sim-copies	         7.000 sim-phases	         7.000 sim-time	       0 B/op	       0 allocs/op
--- FAIL: BenchmarkQuorumWriteBatch/n=256
    bench_test.go:110: stalled
--- FAIL: BenchmarkQuorumWriteBatch
FAIL
exit status 1
FAIL	repro	0.412s
FAIL
`

// TestParseBench: names lose "Benchmark" and the -GOMAXPROCS suffix, each
// benchmark keeps its fastest repeat with that repeat's own iterations,
// allocs/op and B/op, and only the sim-* metrics become sim counters.
func TestParseBench(t *testing.T) {
	got, err := parseBench([]byte(transcript))
	if err != nil {
		t.Fatal(err)
	}
	want := []Result{
		{Name: "E3DMMPCStep/n=64", Iterations: 20, NsPerOp: 6332,
			SimTime: 7, SimPhases: 7, SimCopyAccess: 442},
		{Name: "E13ReplayStep/n=1024", Iterations: 20, NsPerOp: 858488, BytesPerOp: 2,
			SimTime: 1105, SimPhases: 13, SimCycles: 1105, SimCopyAccess: 12873},
		{Name: "E14ServeStep/T=2/K=2", Iterations: 69070, NsPerOp: 17380},
		{Name: "ProgramBitonicSortDMMPC", Iterations: 20, NsPerOp: 26376552,
			AllocsPerOp: 13328, BytesPerOp: 1066740},
		{Name: "QuorumWriteBatch/n=256", Iterations: 39866, NsPerOp: 29512},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseBench:\n got %+v\nwant %+v", got, want)
	}
}

// TestRecord: a run whose transcript reports a failure, or whose go test
// exits non-zero, is an error and writes no snapshot; a clean run writes
// one holding the parsed results.
func TestRecord(t *testing.T) {
	dir := t.TempDir()
	snap := Snapshot{Date: "2026-01-01"}
	if _, err := record(dir, &snap, []byte(failed), nil); err == nil ||
		!strings.Contains(err.Error(), "BenchmarkQuorumWriteBatch/n=256") {
		t.Errorf("failing transcript: err = %v, want the failed benchmark named", err)
	}
	if _, err := record(dir, &snap, []byte(transcript), errors.New("exit status 1")); err == nil {
		t.Error("go test exit error: recorded anyway")
	}
	if _, err := record(dir, &snap, []byte("PASS\n"), nil); err == nil {
		t.Error("transcript without results: recorded anyway")
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("failed runs wrote %d files", len(entries))
	}

	path, err := record(dir, &snap, []byte(transcript), nil)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "BENCH_2026-01-01.json" {
		t.Errorf("wrote %s", path)
	}
	back, err := readSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Results) != 5 || !reflect.DeepEqual(back.Results, snap.Results) {
		t.Errorf("snapshot file holds %+v, want the 5 parsed results", back.Results)
	}
}
