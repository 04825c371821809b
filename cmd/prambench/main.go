// Command prambench is the repository's end-to-end benchmark. It runs five
// workloads through the public APIs, from a P-RAM program on one machine
// up to HTTP submits against the serving front end, checks every output
// against an independent reference, and prints each metric as
//
//	workload metric value unit (n=samples)
//
// Usage:
//
//	go run . -seed N [-workload W] [-duration D] [-out FILE] [-trace DIR] [-json]
//	go run . -compare A.json[,A2.json...] B.json[,B2.json...]
//
// -trace runs each workload twice, untraced and then traced, writes a
// Perfetto-readable span file per workload into DIR and prints the
// per-layer metrics with trace.overhead_ratio. See README.md for the
// workloads, the metric catalogue and how to read the results.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

// workloadNames lists the workloads in the order a full run executes them.
var workloadNames = []string{"sort-dmmpc", "hotspot-dmmpc", "uniform-mot2d", "serve-open", "serve-closed"}

const (
	// procs is the load shape's GOMAXPROCS: one process, two OS threads.
	procs = 2
	// untracedSetups is how many times an untraced run sets its workload
	// up; setup_s is their median and the last one is measured.
	untracedSetups = 5
)

// report is the results file: the runs plus what is needed to judge them.
type report struct {
	Seed          int64     `json:"seed"`
	WindowS       float64   `json:"window_s"`
	GoVersion     string    `json:"go_version"`
	NumCPU        int       `json:"num_cpu"`
	GOMAXPROCS    int       `json:"gomaxprocs"`
	CalibrationNs float64   `json:"calibration_ns_per_iter"`
	Results       []*result `json:"results"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("prambench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	workload := fs.String("workload", "all", "workload to run, or all")
	duration := fs.Duration("duration", 20*time.Second, "measured window per workload")
	out := fs.String("out", "", "write the results as JSON to this file")
	traceDir := fs.String("trace", "", "traced run: write span files here and print per-layer metrics")
	oneLine := fs.Bool("json", false, "print the one-line JSON result BENCHMARK.json's command reports, last (one workload only)")
	compare := fs.Bool("compare", false, "compare two results files (or comma-separated sets): prambench -compare A B")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "prambench: -compare wants two results files (or comma-separated sets)")
			return 2
		}
		if err := runCompare(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "prambench:", err)
			return 1
		}
		return 0
	}
	names := workloadNames
	if *workload != "all" {
		if !slices.Contains(workloadNames, *workload) {
			fmt.Fprintf(stderr, "prambench: unknown workload %q (want one of %v or all)\n", *workload, workloadNames)
			return 2
		}
		names = []string{*workload}
	}
	if *oneLine && len(names) != 1 {
		fmt.Fprintln(stderr, "prambench: -json needs a single -workload")
		return 2
	}
	if fs.NArg() > 0 || *duration <= 0 {
		fs.Usage()
		return 2
	}
	runtime.GOMAXPROCS(procs)

	rep := report{Seed: *seed, WindowS: duration.Seconds(), GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CalibrationNs: calibrate()}
	ok := true
	for _, name := range names {
		var res *result
		if *traceDir == "" {
			res, _ = runOne(name, *seed, *duration, nil, untracedSetups)
		} else {
			var err error
			if res, err = runTraced(name, *seed, *duration, *traceDir); err != nil {
				fmt.Fprintln(stderr, "prambench:", err)
				return 1
			}
		}
		res.print(stdout)
		rep.Results = append(rep.Results, res)
		ok = ok && res.Correct
		debug.FreeOSMemory()
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "prambench: writing results:", err)
			return 1
		}
	}
	if *oneLine {
		set := endToEndNames
		if *traceDir != "" {
			set = perLayerNames
		}
		line, err := rep.Results[0].oneLine(set)
		if err != nil {
			fmt.Fprintln(stderr, "prambench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if !ok {
		fmt.Fprintln(stderr, "prambench: output checks failed; the numbers above are void")
		return 1
	}
	return 0
}

// runOne runs a workload with `setups` set-ups, traced when tr is set, and
// returns its result and the simulated cost of its first steps.
func runOne(name string, seed int64, window time.Duration, tr *tracer, setups int) (*result, simCost) {
	if _, ok := simSpecs[name]; ok {
		return runSim(name, seed, window, tr, setups, nil)
	}
	return runServe(name, seed, window, tr, setups)
}

// runTraced runs a workload untraced and then traced on the same seed, each
// for half the window, so a traced run takes as long as an untraced one. The
// traced result carries the per-layer metrics and trace.overhead_ratio; it
// fails its checks unless both runs passed theirs and their simulated
// costs are identical, which shows the wrappers left the program alone.
func runTraced(name string, seed int64, window time.Duration, dir string) (*result, error) {
	ref, refCost := runOne(name, seed, window/2, nil, 1)
	debug.FreeOSMemory()
	tr := newTracer()
	res, cost := runOne(name, seed, window/2, tr, 1)
	res.set("trace.overhead_ratio",
		1-ratio(res.Metrics["steps_per_s"].Value, ref.Metrics["steps_per_s"].Value), "ratio", 2)
	if !ref.Correct {
		res.fail(fmt.Errorf("untraced reference run: %v", ref.Errors))
	}
	if cost != refCost {
		res.fail(fmt.Errorf("traced run simulated %+v, untraced run %+v", cost, refCost))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, name+".trace.json"))
	if err != nil {
		return nil, err
	}
	if err := tr.writeChrome(f); err != nil {
		f.Close()
		return nil, err
	}
	return res, f.Close()
}
