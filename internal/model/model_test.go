package model

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestOpString(t *testing.T) {
	cases := map[Op]string{OpNone: "none", OpRead: "read", OpWrite: "write", Op(9): "op(9)"}
	for op, want := range cases {
		if got := op.String(); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", op, got, want)
		}
	}
}

func TestModeString(t *testing.T) {
	cases := map[Mode]string{
		EREW: "EREW", CREW: "CREW", CRCWPriority: "CRCW-priority",
		CRCWCommon: "CRCW-common", CRCWArbitrary: "CRCW-arbitrary", Mode(99): "mode(99)",
	}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("Mode(%d).String() = %q, want %q", m, got, want)
		}
	}
}

// TestParseMode: every spelling the CLIs accept parses case-insensitively,
// every Mode.String() form parses back to its mode, and anything else is
// an error that lists the valid spellings.
func TestParseMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Mode
	}{
		{"erew", EREW}, {"EREW", EREW},
		{"crew", CREW}, {"Crew", CREW},
		{"crcw", CRCWPriority}, {"crcw-priority", CRCWPriority}, {"priority", CRCWPriority},
		{"crcw-common", CRCWCommon}, {"common", CRCWCommon}, {"COMMON", CRCWCommon},
		{"crcw-arbitrary", CRCWArbitrary}, {"arbitrary", CRCWArbitrary},
	} {
		if got, err := ParseMode(tc.in); err != nil || got != tc.want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	for _, m := range []Mode{EREW, CREW, CRCWPriority, CRCWCommon, CRCWArbitrary} {
		if got, err := ParseMode(m.String()); err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	for _, bad := range []string{"", "crcw-", "comon", "crcw common", " crew", "mode(99)"} {
		_, err := ParseMode(bad)
		if err == nil || !strings.Contains(err.Error(), "erew, crew, crcw, crcw-priority, priority, crcw-common, common, crcw-arbitrary, arbitrary") {
			t.Errorf("ParseMode(%q): err = %v, want one listing the valid spellings", bad, err)
		}
	}
}

func TestNewBatchIdle(t *testing.T) {
	b := NewBatch(5)
	if len(b) != 5 {
		t.Fatalf("len = %d, want 5", len(b))
	}
	for i, r := range b {
		if r.Proc != i || r.Op != OpNone {
			t.Errorf("entry %d = %+v, want idle proc %d", i, r, i)
		}
	}
	if b.Active() != 0 || b.Reads() != 0 || b.Writes() != 0 {
		t.Errorf("idle batch reports activity: %d/%d/%d", b.Active(), b.Reads(), b.Writes())
	}
}

func TestBatchCounts(t *testing.T) {
	b := Batch{
		{Proc: 0, Op: OpRead, Addr: 1},
		{Proc: 1, Op: OpWrite, Addr: 2, Value: 7},
		{Proc: 2, Op: OpNone},
		{Proc: 3, Op: OpRead, Addr: 3},
	}
	if b.Reads() != 2 || b.Writes() != 1 || b.Active() != 3 {
		t.Errorf("counts = %d/%d/%d, want 2/1/3", b.Reads(), b.Writes(), b.Active())
	}
}

func TestResolveStepReadsSeePreState(t *testing.T) {
	mem := []Word{10, 20, 30}
	b := Batch{
		{Proc: 0, Op: OpRead, Addr: 1},
		{Proc: 1, Op: OpWrite, Addr: 1, Value: 99},
	}
	vals, err := ResolveStep(mem, b, CRCWPriority)
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if vals[0] != 20 {
		t.Errorf("read saw %d, want pre-step value 20", vals[0])
	}
	if mem[1] != 99 {
		t.Errorf("write did not commit: cell = %d", mem[1])
	}
}

func TestResolveStepPriorityWrite(t *testing.T) {
	mem := []Word{0}
	b := Batch{
		{Proc: 0, Op: OpNone},
		{Proc: 1, Op: OpWrite, Addr: 0, Value: 1},
		{Proc: 2, Op: OpWrite, Addr: 0, Value: 2},
		{Proc: 3, Op: OpWrite, Addr: 0, Value: 3},
	}
	if _, err := ResolveStep(mem, b, CRCWPriority); err != nil {
		t.Fatalf("priority mode must accept concurrent writes: %v", err)
	}
	if mem[0] != 1 {
		t.Errorf("priority write committed %d, want 1 (lowest proc id)", mem[0])
	}
}

func TestResolveStepArbitraryWrite(t *testing.T) {
	mem := []Word{0}
	b := NewBatch(6)
	b[1] = Request{Proc: 1, Op: OpWrite, Addr: 0, Value: 1}
	b[3] = Request{Proc: 3, Op: OpWrite, Addr: 0, Value: 3}
	b[5] = Request{Proc: 5, Op: OpWrite, Addr: 0, Value: 5}
	if _, err := ResolveStep(mem, b, CRCWArbitrary); err != nil {
		t.Fatalf("arbitrary mode must accept concurrent writes: %v", err)
	}
	if mem[0] != 5 {
		t.Errorf("arbitrary write committed %d, want 5 (highest proc id convention)", mem[0])
	}
}

// TestResolveStepRefusesMisindexedEntry: a batch is indexed by processor,
// so an active entry whose Proc is not its index — swapped with another,
// or past the batch — is refused with a panic that names the entry, and
// memory is left as it was.
func TestResolveStepRefusesMisindexedEntry(t *testing.T) {
	for _, c := range []struct {
		name  string
		batch Batch
		want  string
	}{
		{"swapped", Batch{{Proc: 1, Op: OpWrite, Addr: 0, Value: 1}, {Proc: 0, Op: OpRead, Addr: 0}},
			"batch entry 0 holds processor 1's request"},
		{"past the batch", Batch{{Proc: 0, Op: OpNone}, {Proc: 5, Op: OpRead, Addr: 0}},
			"batch entry 1 holds processor 5's request"},
	} {
		t.Run(c.name, func(t *testing.T) {
			mem := []Word{7}
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, c.want) {
					t.Errorf("panic %q, want one naming %q", msg, c.want)
				}
				if mem[0] != 7 {
					t.Errorf("refused batch changed memory to %d", mem[0])
				}
			}()
			ResolveStep(mem, c.batch, CRCWPriority)
		})
	}
}

func TestResolveStepCommonWrite(t *testing.T) {
	mem := []Word{0}
	agree := Batch{
		{Proc: 0, Op: OpWrite, Addr: 0, Value: 7},
		{Proc: 1, Op: OpWrite, Addr: 0, Value: 7},
	}
	if _, err := ResolveStep(mem, agree, CRCWCommon); err != nil {
		t.Fatalf("agreeing common write flagged: %v", err)
	}
	disagree := Batch{
		{Proc: 0, Op: OpWrite, Addr: 0, Value: 7},
		{Proc: 1, Op: OpWrite, Addr: 0, Value: 8},
	}
	_, err := ResolveStep(mem, disagree, CRCWCommon)
	var ce *ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("disagreeing common write not flagged, err = %v", err)
	}
	if ce.Kind != "disagreeing common write" {
		t.Errorf("kind = %q", ce.Kind)
	}
}

func TestCheckConflictsEREW(t *testing.T) {
	// Two readers of the same cell violate EREW but not CREW.
	b := Batch{
		{Proc: 0, Op: OpRead, Addr: 4},
		{Proc: 2, Op: OpRead, Addr: 4},
	}
	if err := CheckConflicts(b, EREW); err == nil {
		t.Error("EREW concurrent read not detected")
	}
	if err := CheckConflicts(b, CREW); err != nil {
		t.Errorf("CREW rejected concurrent read: %v", err)
	}
}

func TestCheckConflictsCREW(t *testing.T) {
	rw := Batch{
		{Proc: 0, Op: OpRead, Addr: 4},
		{Proc: 1, Op: OpWrite, Addr: 4, Value: 1},
	}
	if err := CheckConflicts(rw, CREW); err == nil {
		t.Error("CREW read/write collision not detected")
	}
	ww := Batch{
		{Proc: 0, Op: OpWrite, Addr: 4, Value: 1},
		{Proc: 1, Op: OpWrite, Addr: 4, Value: 1},
	}
	if err := CheckConflicts(ww, CREW); err == nil {
		t.Error("CREW concurrent write not detected")
	}
	if err := CheckConflicts(ww, CRCWPriority); err != nil {
		t.Errorf("CRCW rejected concurrent write: %v", err)
	}
}

func TestCheckConflictsDisjointLegalEverywhere(t *testing.T) {
	b := Batch{
		{Proc: 0, Op: OpRead, Addr: 0},
		{Proc: 1, Op: OpWrite, Addr: 1, Value: 1},
		{Proc: 2, Op: OpRead, Addr: 2},
	}
	for _, m := range []Mode{EREW, CREW, CRCWPriority, CRCWCommon, CRCWArbitrary} {
		if err := CheckConflicts(b, m); err != nil {
			t.Errorf("%v rejected disjoint batch: %v", m, err)
		}
	}
}

func TestConflictErrorMessage(t *testing.T) {
	e := &ConflictError{Mode: EREW, Addr: 7, Procs: []int{1, 2}, Kind: "concurrent access"}
	want := "EREW violation: concurrent access of cell 7 by processors [1 2]"
	if e.Error() != want {
		t.Errorf("Error() = %q, want %q", e.Error(), want)
	}
}

// Property: under CRCW-Priority, ResolveStep is equivalent to a slow-motion
// reference implementation (reads of pre-state, then writes in ascending
// processor order with first-writer-wins).
func TestResolveStepMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const m, n = 16, 12
		mem := make([]Word, m)
		ref := make([]Word, m)
		for i := range mem {
			v := Word(rng.Intn(100))
			mem[i], ref[i] = v, v
		}
		batch := NewBatch(n)
		for i := range batch {
			switch rng.Intn(3) {
			case 0:
				batch[i] = Request{Proc: i, Op: OpRead, Addr: rng.Intn(m)}
			case 1:
				batch[i] = Request{Proc: i, Op: OpWrite, Addr: rng.Intn(m), Value: Word(rng.Intn(1000))}
			}
		}
		// Reference: reads of pre-state.
		wantVals := map[int]Word{}
		for _, r := range batch {
			if r.Op == OpRead {
				wantVals[r.Proc] = ref[r.Addr]
			}
		}
		written := map[Addr]bool{}
		for i := 0; i < n; i++ { // ascending proc id, first writer wins
			r := batch[i]
			if r.Op == OpWrite && !written[r.Addr] {
				ref[r.Addr] = r.Value
				written[r.Addr] = true
			}
		}
		gotVals, _ := ResolveStep(mem, batch, CRCWPriority)
		if len(gotVals) != len(batch) {
			return false
		}
		for p, got := range gotVals {
			if got != wantVals[p] { // non-readers must read as zero
				return false
			}
		}
		for a := range ref {
			if mem[a] != ref[a] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
