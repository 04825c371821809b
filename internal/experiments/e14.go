// Wall-clock use here is the MEASUREMENT, not an input: E14 reports
// replay step latency in µs/round, so time.Now brackets rp.Run() and
// feeds only the reported timing column. Simulation state — batches,
// verification hashes, merge censuses — is produced before the clock is
// read and never depends on it, so the run's correctness columns remain
// a pure function of (seed, config, pattern).
//
//pram:wallclock

package experiments

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/replay"
	"repro/internal/stats"
)

// E14ReplaySweep is the ROADMAP's "replay-driven sweep": one workload
// shape — the same total simulated processor count, split into K
// band-local lanes — is RECORDED through the real pool at each K ∈
// {1,2,4,8}, whose per-round census counts the serial components, then
// REPLAYED step frame by step frame onto a fresh build's lane machines,
// measuring wall-clock latency per round. The census is the recording
// run's: it depends only on the post-dedup steps, which the replay runs
// unchanged. The banded pattern keeps lanes on disjoint module bands
// (components stay at K: the merge-free shape the serving front end
// schedules for), the uniform pattern lets lanes collide on modules, so
// the sweep shows how the merge rate grows with K — the signal the
// multi-tenant scheduler's autoscaler reads. Each replay is verified
// (recorded costs, Values hashes, final fingerprint) before its timing is
// reported; render with `cmd/experiments -csv e14` for the CSV form.
func E14ReplaySweep() Result {
	const (
		nTotal = 128
		rounds = 12
	)
	tb := stats.NewTable("pattern", "K", "n/lane", "rounds", "us/round",
		"components/round", "merges/round", "merge rate", "verify")
	var worstMerge float64
	for _, pattern := range []replay.Pattern{replay.Banded, replay.Uniform} {
		for _, K := range []int{1, 2, 4, 8} {
			cfg := core.Spec{Kind: core.KindDMMPC, Lanes: K, Procs: nTotal / K,
				Mode: model.CRCWPriority}
			row, mergeRate := replaySweepPoint(cfg, pattern, rounds)
			if pattern == replay.Uniform && mergeRate > worstMerge {
				worstMerge = mergeRate
			}
			tb.AddRow(row...)
		}
	}
	return Result{
		ID:    "E14",
		Title: "Replay-driven serving sweep: step latency vs serial-component merges over K engines",
		Claim: "K band-local lanes on one sharded image keep K disjoint components per round " +
			"(constant redundancy makes concurrent tenants safe against one memory image); " +
			"cross-band traffic pays for itself in forced serial merges, not in corruption: " +
			"its steps, replayed one by one in the order they ran, verify bit for bit",
		Table: tb,
		Notes: []string{
			fmt.Sprintf("uniform (cross-band) traffic peaks at %.2f merges per possible merge; banded stays at 0", worstMerge),
			"components per round come from the recording run's census; every replay point, " +
				"run one step frame at a time on its lane's machine, verified bit-for-bit against its recording before timing",
		},
	}
}

// replaySweepPoint records one (config, pattern) workload in memory and
// replays it with verification, returning the rendered table row and the
// merge rate. It records through a pool at every K, K = 1 included, whose
// census counts the components; a one-engine pool's trace is the single
// machine's, which the replay builds.
func replaySweepPoint(cfg core.Spec, pattern replay.Pattern, rounds int) ([]any, float64) {
	built, err := cfg.BuildPool(cfg.Lanes)
	if err != nil {
		return []any{pattern.String(), cfg.Lanes, cfg.Procs, 0, "build error", err.Error(), "-", "-", "-"}, 0
	}
	var buf bytes.Buffer
	rec, err := replay.NewRecorder(&buf, built)
	if err != nil {
		return []any{pattern.String(), cfg.Lanes, cfg.Procs, 0, "record error", err.Error(), "-", "-", "-"}, 0
	}
	gen := replay.NewGenerator(pattern, cfg.Lanes, cfg.Procs, built.Params.Mem, 17)
	var components int64
	for s := 0; s < rounds; s++ {
		for _, rep := range built.ExecuteSteps(gen.Step(s)) {
			if rep.Err != nil {
				return []any{pattern.String(), cfg.Lanes, cfg.Procs, s, "step error", rep.Err.Error(), "-", "-", "-"}, 0
			}
		}
		components += int64(built.Pool.LastComponents())
	}
	if err := rec.Close(); err != nil {
		return []any{pattern.String(), cfg.Lanes, cfg.Procs, rounds, "close error", err.Error(), "-", "-", "-"}, 0
	}

	rp, err := replay.Open(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return []any{pattern.String(), cfg.Lanes, cfg.Procs, rounds, "open error", err.Error(), "-", "-", "-"}, 0
	}
	rp.Verify = true
	start := time.Now()
	sum, err := rp.Run()
	elapsed := time.Since(start)
	if err != nil {
		return []any{pattern.String(), cfg.Lanes, cfg.Procs, rounds, "replay error", err.Error(), "-", "-", "-"}, 0
	}
	verify := "ok"
	if !sum.VerifyOK() {
		verify = fmt.Sprintf("MISMATCH(%d)", sum.Mismatches)
	}
	compPerRound := float64(components) / float64(sum.Rounds)
	mergesPerRound := float64(cfg.Lanes) - compPerRound
	mergeRate := 0.0
	if cfg.Lanes > 1 {
		// Merges per possible merge: 0 = fully disjoint, 1 = one serial chain.
		mergeRate = mergesPerRound / float64(cfg.Lanes-1)
	}
	usPerRound := float64(elapsed.Microseconds()) / float64(sum.Rounds)
	return []any{pattern.String(), cfg.Lanes, cfg.Procs, int(sum.Rounds), usPerRound,
		compPerRound, mergesPerRound, mergeRate, verify}, mergeRate
}
