package serve

import (
	"bytes"
	"testing"

	"repro/internal/model"
	"repro/internal/replay"
)

// TestServeRoundZeroAllocs locks the serving hot path's steady-state
// zero-allocation invariant: admission, band-aware scheduling, generator
// fill, the pool round, per-tenant accounting and stage-event recording
// all run out of reusable state — at the default event depth and at a
// depth small enough that every round overwrites the ring.
func TestServeRoundZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation invariants are measured without the race detector")
	}
	for _, depth := range []int{0, 16} {
		s, err := NewServer(Config{
			Tenants: []TenantConfig{
				{Name: "a", Band: 0, Procs: 32, Arrival: Arrival{Window: 2},
					Source: NewPatternSource(replay.Uniform, 32, 0, 1)},
				{Name: "b", Band: 1, Procs: 32, Arrival: Arrival{Window: 2},
					Source: NewPatternSource(replay.Hotspot, 32, 0, 2)},
				{Name: "c", Band: 2, Procs: 16, Arrival: Arrival{Window: 2},
					Source: NewPatternSource(replay.Broadcast, 16, 0, 3)},
			},
			Bands:      3,
			Engines:    3,
			Workers:    0,
			Seed:       7,
			EventDepth: depth,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ { // grow every arena
			s.Round()
		}
		if avg := testing.AllocsPerRun(50, func() {
			if s.Round() != 3 {
				t.Fatal("closed-loop round did not schedule every shard")
			}
		}); avg != 0 {
			t.Errorf("depth %d: Round allocates %.2f/op in steady state, want 0", depth, avg)
		}
		if wrapped := s.events.Dropped() > 0; wrapped != (depth != 0) {
			t.Errorf("depth %d: ring wrapped = %v, want %v", depth, wrapped, depth != 0)
		}
		s.Close()
	}
}

// TestEventPushZeroAllocs locks the event log's append: a flat struct
// store into a preallocated ring slot plus virtual-clock arithmetic, even
// once the ring wraps.
func TestEventPushZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation invariants are measured without the race detector")
	}
	l := newEventLog(8)
	if avg := testing.AllocsPerRun(200, func() {
		l.push(Event{Kind: KindDecision, Round: l.Total(), Start: l.Now(), K: 1, To: 2, A: 3, F1: 0.5})
		l.push(Event{Kind: KindQuorum, Round: l.Total(), Start: l.Now(), Dur: 3, Track: 1, A: 2, B: 5})
		l.advance(3)
	}); avg != 0 {
		t.Errorf("event push allocates %.2f/op, want 0", avg)
	}
	if l.Dropped() == 0 {
		t.Error("ring never wrapped — the test did not cover the overwrite path")
	}
}

// TestSubmitZeroAllocs extends the invariant to external admission: Submit
// (wait-ring pushes + submit event) and the round that serves the credit
// are allocation-free in steady state.
func TestSubmitZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation invariants are measured without the race detector")
	}
	s, err := NewServer(externalPair())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 5; i++ {
		s.Submit(0, 2)
		s.Submit(1, 6) // overflows cap 4: the rejection path is hot too
		s.Round()
	}
	if avg := testing.AllocsPerRun(50, func() {
		s.Submit(0, 1)
		s.Submit(1, 6)
		s.Round()
	}); avg != 0 {
		t.Errorf("Submit+Round allocates %.2f/op in steady state, want 0", avg)
	}
}

// TestServeTraceRoundZeroAllocs extends the invariant to a trace-backed
// tenant: frame decode, batch reconstruction and band remap are all
// allocation-free in steady state.
func TestServeTraceRoundZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation invariants are measured without the race detector")
	}
	rcfg := replay.Config{Kind: replay.KindDMMPC, Lanes: 1, Procs: 16, Mode: model.CRCWPriority}
	built, err := rcfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rec, err := replay.NewRecorder(&buf, built)
	if err != nil {
		t.Fatal(err)
	}
	gen := replay.NewGenerator(replay.Uniform, 1, 16, built.Params.Mem, 5)
	for s := 0; s < 120; s++ {
		if rep := built.Machine.ExecuteStep(gen.Step(s)[0]); rep.Err != nil {
			t.Fatal(rep.Err)
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(Config{
		Tenants: []TenantConfig{
			{Name: "trace", Band: 0, Procs: 16, Arrival: Arrival{Window: 1},
				Source: NewTraceSource(buf.Bytes(), 0, false)},
		},
		Bands:   1,
		Engines: 1,
		Seed:    9,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 10; i++ {
		s.Round()
	}
	if avg := testing.AllocsPerRun(50, func() {
		if s.Round() != 1 {
			t.Fatal("trace tenant starved before its trace ended")
		}
	}); avg != 0 {
		t.Errorf("trace-backed Round allocates %.2f/op in steady state, want 0", avg)
	}
}
