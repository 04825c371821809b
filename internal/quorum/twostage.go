package quorum

import "repro/internal/xmath"

// TwoStageConfig enables the faithful two-stage schedule of Upfal &
// Wigderson as used by the paper (§1's review and Luccio et al.'s
// adaptation):
//
//   - Stage 1 interleaves the 2c−1 requests of every cluster round-robin
//     for a FIXED budget of phases — O(log log n) passes over the cluster's
//     requests — after which all but ~n/(2c−1) requests are dead.
//   - Stage 2 drains the stragglers, one live request per cluster, with the
//     copy accesses queued at the modules and served at bandwidth
//     s = O(log n) per phase to match the interconnect's latency (the
//     pipelining that gives Theorem 3 its O(log²n/log log n) time).
//
// Correctness is unaffected by the stage split: a straggler's stage 2
// access starts from a clean slate and still gathers/updates a full quorum
// of c copies; only the TIME accounting changes.
type TwoStageConfig struct {
	// Stage1Phases caps stage 1; 0 selects (2c−1)·(⌈log2 log2 n⌉+2),
	// the paper's O(log log n) passes over each cluster's requests.
	Stage1Phases int
	// Stage2Bandwidth is the per-module service rate during stage 2;
	// 0 selects ⌈log2 n⌉.
	Stage2Bandwidth int
}

// BandwidthSetter is implemented by interconnects whose per-phase module
// service rate can be retuned between stages (the complete bipartite graph
// and the 2DMOT's module queues both support it). SetBandwidth returns the
// setting it replaces, so the two-stage schedule can restore it.
type BandwidthSetter interface {
	SetBandwidth(perPhase int) (previous int)
}

// stage1Budget resolves the stage 1 phase cap.
func (ts *TwoStageConfig) stage1Budget(n, r int) int {
	if ts.Stage1Phases > 0 {
		return ts.Stage1Phases
	}
	passes := xmath.CeilLog2(xmath.CeilLog2(max(n, 4))+1) + 2
	return r * passes
}

// stage2Bandwidth resolves the stage 2 service rate.
func (ts *TwoStageConfig) stage2Bandwidth(n int) int {
	if ts.Stage2Bandwidth > 0 {
		return ts.Stage2Bandwidth
	}
	return max(1, xmath.CeilLog2(n))
}

// ExecuteBatchTwoStage runs one access batch under the two-stage schedule.
// The Result's Phases/Time/LivePerPhase span both stages; Stage1Phases and
// Stage2Phases break the count down. Like ExecuteBatch, the Result's slices
// alias the engine's scratch arena: both stages append to one contiguous
// LivePerPhase buffer, and stage 2 runs in the arena's secondary result
// buffers so merging cannot clobber the stage-1 frame.
func (e *Engine) ExecuteBatchTwoStage(reqs []Request, cfg TwoStageConfig) Result {
	e.sc.livePerPhase = e.sc.livePerPhase[:0]
	values, satisfied := e.primaryBuffers(len(reqs))
	// Stage 1: the ordinary round-robin loop, capped at the budget. A
	// "stall" here is not an error — it is the designed handoff point.
	stage1 := e.run(reqs, values, satisfied, cfg.stage1Budget(e.n, e.r))
	stage1.Stage1Phases = stage1.Phases
	if !stage1.Stalled {
		return stage1
	}
	// Stage 2: drain the stragglers with boosted module bandwidth.
	liveReqs := e.sc.liveReqs[:0]
	liveIdx := e.sc.liveIdx[:0]
	for i, ok := range stage1.Satisfied {
		if !ok {
			liveReqs = append(liveReqs, reqs[i])
			liveIdx = append(liveIdx, i)
		}
	}
	e.sc.liveReqs = liveReqs
	e.sc.liveIdx = liveIdx
	if bs, ok := e.net.(BandwidthSetter); ok {
		previous := bs.SetBandwidth(cfg.stage2Bandwidth(e.n))
		defer bs.SetBandwidth(previous)
	}
	values2, satisfied2 := e.secondaryBuffers(len(liveReqs))
	stage2 := e.run(liveReqs, values2, satisfied2, e.maxPhases(len(liveReqs)))
	// Merge stage 2 outcomes into stage 1's result frame.
	merged := stage1
	merged.Stalled = stage2.Stalled
	merged.Phases += stage2.Phases
	merged.Time += stage2.Time
	merged.CopyAccesses += stage2.CopyAccesses
	if stage2.MaxModuleLoad > merged.MaxModuleLoad {
		merged.MaxModuleLoad = stage2.MaxModuleLoad
	}
	// Both stages appended to the shared accumulator, so the merged
	// per-phase counts are simply its full extent.
	merged.LivePerPhase = e.sc.livePerPhase[:len(e.sc.livePerPhase):len(e.sc.livePerPhase)]
	merged.Stage2Phases = stage2.Phases
	for j, i := range liveIdx {
		merged.Satisfied[i] = stage2.Satisfied[j]
		merged.Values[i] = stage2.Values[j]
	}
	return merged
}
