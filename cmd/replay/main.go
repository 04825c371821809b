// Command replay records and replays quorum-machine request-batch traces
// (repro/internal/replay) — the measurement backbone that makes E-family
// sweeps at n ≥ 4096 routine: machine construction is paid once per trace
// file and every replayed step skips the program coordinator and the
// dedup pipeline.
//
// Verbs:
//
//	replay record -o FILE [shape flags]   record a generated workload
//	replay run    [-passes N] FILE        replay a trace, print a summary
//	replay verify FILE                    replay + verify costs/hashes/
//	                                      fingerprint; exit 1 on mismatch
//	replay info   FILE                    print the header and frame counts
//
// `run` prints the wall time per replayed step; the benchmark of a
// replayed step is the root package's E13ReplayStep.
//
// Record shape flags: -machine dmmpc|mot2d|luccio, -n procs-per-lane,
// -engines K (pool lanes), -steps, -pattern uniform|banded|hotspot|
// broadcast, -loads cells-per-lane, -mode, -seed (map), -wseed (workload),
// -k (memory exponent), -gran (ε/δ), -dualrail, -twostage, -policy
// drop|queue. Runtime-only knob everywhere: -workers (pool executors).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/mot"
	"repro/internal/replay"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "record":
		err = cmdRecord(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:], false)
	case "verify":
		err = cmdRun(os.Args[2:], true)
	case "info":
		err = cmdInfo(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "replay: unknown verb %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "replay:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  replay record -o FILE [-machine dmmpc|mot2d|luccio] [-n N] [-engines K]
                [-steps S] [-pattern uniform|banded|hotspot|broadcast]
                [-loads L] [-mode crcw|crcw-common|crcw-arbitrary|crew|erew]
                [-seed S] [-wseed S] [-k EXP] [-gran EXP] [-dualrail]
                [-twostage] [-policy drop|queue]
  replay run    [-passes N] [-workers W] FILE
  replay verify [-workers W] FILE
  replay info   FILE`)
}

// parseMode maps CLI spellings to conflict modes.
func parseMode(s string) (model.Mode, error) {
	switch s {
	case "crcw", "crcw-priority", "priority":
		return model.CRCWPriority, nil
	case "crcw-common", "common":
		return model.CRCWCommon, nil
	case "crcw-arbitrary", "arbitrary":
		return model.CRCWArbitrary, nil
	case "crew":
		return model.CREW, nil
	case "erew":
		return model.EREW, nil
	}
	return 0, fmt.Errorf("unknown mode %q", s)
}

func cmdRecord(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	out := fs.String("o", "", "output trace file (required)")
	machine := fs.String("machine", "dmmpc", "machine kind: dmmpc, mot2d or luccio")
	n := fs.Int("n", 64, "processors per lane")
	engines := fs.Int("engines", 1, "workload-shard lanes K (0 consults PRAMSIM_ENGINES)")
	steps := fs.Int("steps", 100, "steps to record per lane")
	pattern := fs.String("pattern", "uniform", "workload: uniform, banded, hotspot or broadcast")
	loads := fs.Int("loads", 0, "cells per lane to initialize (recorded as load frames)")
	mode := fs.String("mode", "crcw", "conflict mode")
	seed := fs.Int64("seed", 1, "memory-map seed")
	wseed := fs.Int64("wseed", 7, "workload seed")
	kExp := fs.Float64("k", 0, "memory-size exponent m = n^k (0 = default 2)")
	gran := fs.Float64("gran", 0, "granularity exponent: ε (dmmpc) or δ (mot2d); 0 = default")
	dualRail := fs.Bool("dualrail", false, "2DMOT row+column banks")
	twoStage := fs.Bool("twostage", false, "faithful UW'87 two-stage schedule")
	policy := fs.String("policy", "drop", "2DMOT edge policy: drop or queue")
	workers := fs.Int("workers", 0, "pool executor goroutines (wall-clock only)")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("record: -o FILE is required")
	}
	kind, err := core.ParseKind(*machine)
	if err != nil {
		return err
	}
	pat, err := replay.ParsePattern(*pattern)
	if err != nil {
		return err
	}
	md, err := parseMode(*mode)
	if err != nil {
		return err
	}
	pol := mot.DropOnCollision
	switch *policy {
	case "drop":
	case "queue":
		pol = mot.QueueOnCollision
	default:
		return fmt.Errorf("unknown policy %q", *policy)
	}
	spec := core.Spec{
		Kind: kind, Lanes: *engines, Procs: *n, Mode: md, Seed: *seed,
		KExp: *kExp, Gran: *gran, DualRail: *dualRail, Policy: pol,
		TwoStage: *twoStage, Workers: *workers,
	}
	built, err := spec.Build()
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	rec, err := replay.NewRecorder(f, built)
	if err != nil {
		return err
	}
	if *loads > 0 {
		replay.LoadImage(built, *loads, *wseed)
	}
	gen := replay.NewGenerator(pat, built.Spec.Lanes, built.Spec.Procs, built.Params.Mem, *wseed)
	start := time.Now()
	for s := 0; s < *steps; s++ {
		batches := gen.Step(s)
		if built.Pool != nil {
			if agg, _ := built.Pool.ExecuteSteps(batches); agg.Err != nil {
				return fmt.Errorf("step %d: %w", s, agg.Err)
			}
		} else {
			if rep := built.Machine.ExecuteStep(batches[0]); rep.Err != nil {
				return fmt.Errorf("step %d: %w", s, rep.Err)
			}
		}
	}
	elapsed := time.Since(start)
	if err := rec.Close(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	st, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Printf("recorded %s: %s, %d steps x %d lanes (%s pattern), %d bytes, live run %v\n",
		*out, built.Spec, *steps, built.Spec.Lanes, pat, st.Size(), elapsed.Round(time.Millisecond))
	return nil
}

// openTraceArg parses the trailing FILE argument plus shared runtime flags.
func openTraceArg(fs *flag.FlagSet, args []string) (string, error) {
	fs.Parse(args)
	if fs.NArg() != 1 {
		return "", fmt.Errorf("exactly one trace file argument expected")
	}
	return fs.Arg(0), nil
}

func cmdRun(args []string, verify bool) error {
	name := "run"
	if verify {
		name = "verify"
	}
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	passes := fs.Int("passes", 1, "replay passes (multi-pass is for read-only traces)")
	workers := fs.Int("workers", 0, "pool executor goroutines (wall-clock only)")
	path, err := openTraceArg(fs, args)
	if err != nil {
		return err
	}
	if verify && *passes != 1 {
		// Reset does not rewind the store, so a second pass over a trace
		// with writes would advance the Lamport stamps past the recorded
		// run and fail the fingerprint check on a perfectly good file.
		return fmt.Errorf("verify replays exactly one pass (use run for multi-pass)")
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	buildStart := time.Now()
	rp, err := replay.OpenConfigured(f, *workers)
	if err != nil {
		return err
	}
	buildTime := time.Since(buildStart)
	rp.Verify = verify
	start := time.Now()
	sum, err := rp.Run()
	for p := 1; p < *passes && err == nil; p++ {
		if _, serr := f.Seek(0, 0); serr != nil {
			return serr
		}
		if err = rp.Reset(f); err != nil {
			return err
		}
		sum, err = rp.Run()
	}
	elapsed := time.Since(start)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %s\n", path, rp.Spec())
	fmt.Printf("  construction %v (amortized over the file), replay %v\n",
		buildTime.Round(time.Millisecond), elapsed.Round(time.Millisecond))
	perStep := time.Duration(0)
	if sum.Steps > 0 {
		perStep = elapsed / time.Duration(sum.Steps)
	}
	fmt.Printf("  steps %d  rounds %d  loads %d  (%v/step wall)\n", sum.Steps, sum.Rounds, sum.Loads, perStep)
	fmt.Printf("  sim: time %d  phases %d  copies %d  cycles %d  max-contention %d\n",
		sum.SimTime, sum.Phases, sum.CopyAccesses, sum.NetworkCycles, sum.MaxContention)
	if sum.RecordedErrSteps != 0 || sum.ReplayErrSteps != 0 {
		fmt.Printf("  err steps: recorded %d, replayed %d\n", sum.RecordedErrSteps, sum.ReplayErrSteps)
	}
	if verify {
		if !sum.VerifyOK() {
			fmt.Printf("  VERIFY FAILED: %d mismatches\n", sum.Mismatches)
			for _, d := range sum.MismatchDetail {
				fmt.Println("   ", d)
			}
			if sum.FingerprintChecked && !sum.FingerprintOK {
				fmt.Printf("    fingerprint: recorded %x, replayed %x\n",
					sum.RecordedFingerprint, sum.ReplayFingerprint)
			}
			return fmt.Errorf("verification failed")
		}
		fmt.Printf("  verify OK: %d steps bit-for-bit, fingerprint %x\n",
			sum.Steps, sum.ReplayFingerprint)
	}
	return nil
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	path, err := openTraceArg(fs, args)
	if err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := replay.NewReader(f)
	if err != nil {
		return err
	}
	var steps, loads, barriers int64
	var eof *replay.Frame
	for {
		fr, err := r.Next()
		if err != nil {
			return err
		}
		switch fr.Kind {
		case replay.KindStep:
			steps++
		case replay.KindLoad:
			loads++
		case replay.KindBarrier:
			barriers++
		case replay.KindEOF:
			e := *fr
			eof = &e
		}
		if eof != nil {
			break
		}
	}
	st, _ := os.Stat(path)
	fmt.Printf("%s: %s\n", path, r.Spec())
	fmt.Printf("  %d bytes, %d step frames, %d load frames, %d barriers\n",
		st.Size(), steps, loads, barriers)
	fmt.Printf("  eof: %d steps, fingerprint %x\n", eof.Steps, eof.Fingerprint)
	return nil
}
