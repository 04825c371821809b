package model

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// ResolveStep computes the semantic outcome of one P-RAM step against mem:
// every read receives the pre-step value of its cell, and writes are
// committed afterwards under the given conflict Mode. It returns the read
// values densely indexed by processor id (zero for processors that did not
// read) and the first conflict-discipline violation detected (nil if the
// batch is legal under mode). Execution always proceeds; violations are
// resolved by Priority rules so that simulation can continue and tests can
// observe the error.
//
// Centralizing this logic guarantees that every backend — however exotic its
// cost model — agrees exactly on memory semantics, which is the correctness
// invariant the property tests check.
func ResolveStep(mem []Word, batch Batch, mode Mode) ([]Word, error) {
	var c ConflictChecker
	return c.ResolveStepInto(nil, mem, batch, mode)
}

// ResolveStepInto is ResolveStep with a caller-supplied values buffer and
// the checker's reusable scratch, so backends that own a ConflictChecker
// stay off the heap under every conflict mode. The buffer is grown as
// needed and returned resized to len(batch). Batch entry i must be
// processor i's request: an active entry whose Proc is not its index is
// refused with a panic that names it.
func (c *ConflictChecker) ResolveStepInto(values, mem []Word, batch Batch, mode Mode) ([]Word, error) {
	if cap(values) < len(batch) {
		values = make([]Word, len(batch))
	}
	values = values[:len(batch)]
	clear(values)
	// Reads observe pre-step state.
	for i, r := range batch {
		if r.Op == OpNone {
			continue
		}
		if r.Proc != i {
			panic(fmt.Sprintf("model: batch entry %d holds processor %d's request", i, r.Proc))
		}
		if r.Op == OpRead {
			values[i] = mem[r.Addr]
		}
	}
	err := c.Check(batch, mode)
	// Commit writes. Writers arrive in ascending processor order, so the
	// winner per address is just the last store in the right direction:
	// Priority (the lowest processor wins) stores in reverse, Arbitrary
	// (the highest wins) forward.
	if mode == CRCWArbitrary {
		for _, r := range batch {
			if r.Op == OpWrite {
				mem[r.Addr] = r.Value
			}
		}
	} else {
		for i := len(batch) - 1; i >= 0; i-- {
			if r := batch[i]; r.Op == OpWrite {
				mem[r.Addr] = r.Value
			}
		}
	}
	return values, err
}

// CheckConflicts validates batch against the conflict discipline of mode and
// returns a *ConflictError describing the first violation found (scanning
// addresses in ascending order for determinism), or nil.
func CheckConflicts(batch Batch, mode Mode) error {
	var c ConflictChecker
	return c.Check(batch, mode)
}

// ConflictRec is one active request flattened for sorted address scans —
// the record format shared by the conflict checker and the quorum backend's
// dedup pass, so one flatten+sort serves both.
type ConflictRec struct {
	Addr  Addr
	Proc  int
	Val   Word
	Write bool
}

// ConflictChecker validates conflict disciplines without allocating in
// steady state: the flattened request records are kept in a reusable scratch
// slice and grouped by a single sort instead of per-address maps. A zero
// ConflictChecker is ready to use; it is not safe for concurrent use.
type ConflictChecker struct {
	recs []ConflictRec
}

// Check validates batch against mode exactly like CheckConflicts. Under
// CRCW-Priority and CRCW-Arbitrary every batch is legal and the check is
// free.
func (c *ConflictChecker) Check(batch Batch, mode Mode) error {
	if mode == CRCWPriority || mode == CRCWArbitrary {
		return nil // always legal; keep the hot path free
	}
	recs := c.recs[:0]
	for _, r := range batch {
		if r.Op == OpNone {
			continue
		}
		recs = append(recs, ConflictRec{Addr: r.Addr, Proc: r.Proc, Val: r.Value, Write: r.Op == OpWrite})
	}
	c.recs = recs
	slices.SortFunc(recs, func(a, b ConflictRec) int {
		if a.Addr != b.Addr {
			return cmp.Compare(a.Addr, b.Addr)
		}
		return cmp.Compare(a.Proc, b.Proc)
	})
	return CheckSortedRecords(recs, mode)
}

// CheckSortedRecords validates flattened records that are already grouped
// by ascending address (any record order within an address group is
// accepted — error Procs lists are sorted independently). Callers that
// maintain such a sorted record slice anyway (the quorum backend's dedup
// pass) use this to avoid flattening and sorting the batch twice.
func CheckSortedRecords(recs []ConflictRec, mode Mode) error {
	if mode == CRCWPriority || mode == CRCWArbitrary {
		return nil
	}
	for i := 0; i < len(recs); {
		j := i
		for j < len(recs) && recs[j].Addr == recs[i].Addr {
			j++
		}
		if err := checkGroup(recs[i:j], mode); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// checkGroup validates the accesses to one address.
func checkGroup(group []ConflictRec, mode Mode) error {
	switch mode {
	case EREW:
		if len(group) > 1 {
			return &ConflictError{Mode: mode, Addr: group[0].Addr,
				Procs: groupProcs(group, false), Kind: "concurrent access"}
		}
	case CREW:
		writers := 0
		for _, g := range group {
			if g.Write {
				writers++
			}
		}
		if writers > 1 {
			return &ConflictError{Mode: mode, Addr: group[0].Addr,
				Procs: groupProcs(group, true), Kind: "concurrent write"}
		}
		if writers == 1 && len(group) > 1 {
			return &ConflictError{Mode: mode, Addr: group[0].Addr,
				Procs: groupProcs(group, false), Kind: "read/write collision"}
		}
	case CRCWCommon:
		var first Word
		seen := false
		for _, g := range group {
			if !g.Write {
				continue
			}
			if !seen {
				first, seen = g.Val, true
			} else if g.Val != first {
				return &ConflictError{Mode: mode, Addr: group[0].Addr,
					Procs: groupProcs(group, true), Kind: "disagreeing common write"}
			}
		}
	}
	return nil
}

// groupProcs extracts the processor ids of a group, optionally restricted
// to writers, in ascending order. Only called on error paths.
func groupProcs(group []ConflictRec, writersOnly bool) []int {
	procs := make([]int, 0, len(group))
	for _, g := range group {
		if writersOnly && !g.Write {
			continue
		}
		procs = append(procs, g.Proc)
	}
	sort.Ints(procs)
	return procs
}
