package quorum

import (
	"testing"

	"repro/internal/ideal"
	"repro/internal/memmap"
	"repro/internal/model"
)

// TestClockCrossesUint32Boundary is the regression test for the old uint32
// timestamp clock, which panicked ("timestamp clock overflow") once a
// long-running server's batch count wrapped 2^32. The clock and stamps are
// uint64 now: starting every module clock just below the old overflow
// point, batches must stream across the boundary with correct read values
// and strictly advancing stamps.
func TestClockCrossesUint32Boundary(t *testing.T) {
	const n = 64
	p := memmap.LemmaTwo(n, 2, 1)
	st := NewStore(memmap.Generate(p, 11))
	eng := NewEngine(st, NewCompleteBipartite(), n)

	start := uint64(1)<<32 - 2 // two batches below the old panic point
	for v := range st.rowStamp {
		st.rowStamp[v] = start
	}

	for round := 0; round < 6; round++ {
		writes := make([]Request, n)
		for i := range writes {
			writes[i] = Request{Proc: i, Var: i, Write: true, Value: model.Word(round*n + i)}
		}
		if res := eng.ExecuteBatch(writes); res.Stalled {
			t.Fatalf("round %d: write batch stalled", round)
		}
		reads := make([]Request, n)
		for i := range reads {
			reads[i] = Request{Proc: i, Var: i}
		}
		res := eng.ExecuteBatch(reads)
		if res.Stalled {
			t.Fatalf("round %d: read batch stalled", round)
		}
		for i := range reads {
			if want := model.Word(round*n + i); res.Values[i] != want {
				t.Fatalf("round %d: read var %d = %d, want %d (clock=%d)",
					round, i, res.Values[i], want, st.Clock())
			}
		}
	}
	if c := st.Clock(); c <= 1<<32 {
		t.Errorf("clock = %d, expected to have crossed the old uint32 overflow point %d", c, uint64(1)<<32)
	}
}

// TestStampBatchRowLocality checks the Lamport stamping rule: a batch's
// stamp is one past the maximum row stamp over the variables it WRITES,
// exactly those rows' stamps advance to it, read-only batches stamp
// nothing — the properties that make disjoint batches order-independent.
func TestStampBatchRowLocality(t *testing.T) {
	p := memmap.LemmaTwo(32, 2, 1)
	mp := memmap.Generate(p, 3)
	st := NewStore(mp)

	// Seed the written row's clock high; the stamp must clear it. The read
	// row's higher clock must NOT feed the stamp.
	st.rowStamp[5] = 41
	st.rowStamp[9] = 90
	reqs := []Request{{Proc: 0, Var: 5, Write: true, Value: 1}, {Proc: 1, Var: 9}}
	now := st.StampBatch(reqs)
	if now != 42 {
		t.Fatalf("stamp = %d, want 42 (one past the hottest WRITTEN row)", now)
	}
	if st.RowStamp(5) != 42 {
		t.Errorf("written row stamp = %d, want 42", st.RowStamp(5))
	}
	if st.RowStamp(9) != 90 {
		t.Errorf("read row stamp = %d, want untouched 90", st.RowStamp(9))
	}
	if st.RowStamp(7) != 0 {
		t.Errorf("unrelated row stamp = %d, want 0", st.RowStamp(7))
	}
	// A read-only batch stamps nothing and returns 0.
	if got := st.StampBatch([]Request{{Proc: 0, Var: 5}}); got != 0 {
		t.Errorf("read-only batch stamp = %d, want 0", got)
	}
	if st.RowStamp(5) != 42 {
		t.Errorf("read-only batch moved row 5's stamp to %d", st.RowStamp(5))
	}
}

// TestStoreFingerprintSensitivity: equal images hash equal; changing one
// copy's value or timestamp changes the fingerprint.
func TestStoreFingerprintSensitivity(t *testing.T) {
	p := memmap.LemmaTwo(16, 2, 1)
	mp := memmap.Generate(p, 5)
	a, b := NewStore(mp), NewStore(mp)
	a.LoadCell(3, 77)
	b.LoadCell(3, 77)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical images produced different fingerprints")
	}
	b.WriteCopy(3, 1, 77, 9) // same value, new stamp
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("timestamp change not reflected in fingerprint")
	}
}

// TestWarmPassBoundaryRows runs steps on the first and the last variable
// (v = 0 and v = m−1) at r = 3, 7 and 15, where the warm pass's line
// arithmetic meets both ends of the map and the store, through both phase
// loops: a bare CompleteBipartite (bipartitePhase) and a passThrough
// (routedPhase). Every step's Values must match the ideal P-RAM's. At
// m = 37 the last row ends inside a line; at m = 48 it ends on a line
// boundary of both arrays. The test also pins what the pass loads: one
// word per 64-byte line of each row, the row's first word and then the
// word that opens each later line.
func TestWarmPassBoundaryRows(t *testing.T) {
	const n = 16
	for _, mem := range []int{37, 48} {
		for _, c := range []int{2, 4, 8} {
			p := memmap.Params{N: n, M: 64, Mem: mem, B: 3, C: c}
			mp := memmap.Generate(p, 5)
			r := p.R()
			for _, net := range []struct {
				name string
				ic   Interconnect
			}{{"bipartite", NewCompleteBipartite()}, {"pass-through", passThrough{NewCompleteBipartite()}}} {
				m := NewMachine("boundary", n, model.CRCWPriority, NewStore(mp), net.ic)
				id := ideal.New(n, mem, model.CRCWPriority)
				for step := 0; step < 6; step++ {
					batch := model.NewBatch(n)
					for i := range batch {
						v := 0
						if (i+step)%2 == 1 {
							v = mem - 1
						}
						batch[i] = model.Request{Proc: i, Op: model.OpRead, Addr: v}
						if step%2 == 0 && i%5 == step%5 {
							batch[i] = model.Request{Proc: i, Op: model.OpWrite, Addr: v, Value: model.Word(100*step + i)}
						}
					}
					got, want := m.ExecuteStep(batch), id.ExecuteStep(batch)
					if got.Err != nil || want.Err != nil {
						t.Fatalf("m=%d r=%d %s step %d: errors %v, %v", mem, r, net.name, step, got.Err, want.Err)
					}
					for proc, w := range want.Values {
						if got.Values[proc] != w {
							t.Fatalf("m=%d r=%d %s step %d: proc %d read %d, ideal %d",
								mem, r, net.name, step, proc, got.Values[proc], w)
						}
					}
				}
				for _, v := range []int{0, mem - 1} {
					if got, want := m.ReadCell(v), id.ReadCell(v); got != want {
						t.Errorf("m=%d r=%d %s: cell %d = %d, ideal %d", mem, r, net.name, v, got, want)
					}
				}
			}

			// Cell j of every row holds 2^(32+j), so the fold's high half
			// is the set of the row's cells loaded (a load from a
			// neighbouring row would carry into it) and its low half the
			// sum of the map entries loaded (module ids below 64).
			st := NewStore(mp)
			for v := 0; v < mem; v++ {
				for j := 0; j < r; j++ {
					st.WriteCopy(v, j, model.Word(1)<<(32+j), 1)
				}
			}
			for _, v := range []int{0, 1, mem - 2, mem - 1} {
				var wantCells, wantMap uint64
				for j := 0; j < r; j++ {
					if slot := v*r + j; j == 0 || slot%4 == 0 {
						wantCells |= 1 << j
					}
					if slot := v*r + j; j == 0 || slot%16 == 0 {
						wantMap += uint64(mp.ModuleOf(v, j))
					}
				}
				fold := st.warmRows([]Request{{Var: v}})
				if fold>>32 != wantCells || fold&(1<<32-1) != wantMap {
					t.Errorf("m=%d r=%d v=%d: warm pass loaded cells %b and map sum %d, want %b and %d",
						mem, r, v, fold>>32, fold&(1<<32-1), wantCells, wantMap)
				}
			}
		}
	}
}
