package model

import "testing"

// FuzzResolveStep: arbitrary request streams must preserve the core step
// invariants under every conflict mode — reads return pre-step values,
// one value per processor is returned, and processors that did not read
// get zero.
func FuzzResolveStep(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3}, uint8(2))
	f.Add([]byte{9, 9, 9, 9, 9, 9}, uint8(0))
	f.Add([]byte("100"), uint8(2))                              // one write, no read
	f.Add([]byte{0, 4, 0, 1, 4, 7, 2, 0, 0, 1, 4, 9}, uint8(4)) // read, two writes of one cell, idle
	f.Fuzz(func(t *testing.T, raw []byte, modeRaw uint8) {
		const m = 16
		mode := Mode(modeRaw % 5)
		mem := make([]Word, m)
		for i := range mem {
			mem[i] = Word(i * 11)
		}
		pre := make([]Word, m)
		copy(pre, mem)
		var batch Batch
		for i := 0; i+2 < len(raw) && i/3 < 32; i += 3 {
			proc := i / 3
			switch raw[i] % 3 {
			case 0:
				batch = append(batch, Request{Proc: proc, Op: OpRead, Addr: int(raw[i+1]) % m})
			case 1:
				batch = append(batch, Request{Proc: proc, Op: OpWrite, Addr: int(raw[i+1]) % m, Value: Word(raw[i+2])})
			default:
				batch = append(batch, Request{Proc: proc, Op: OpNone})
			}
		}
		vals, _ := ResolveStep(mem, batch, mode)
		if len(vals) != len(batch) {
			t.Fatalf("returned %d values for %d processors", len(vals), len(batch))
		}
		for _, r := range batch {
			want := Word(0)
			if r.Op == OpRead {
				want = pre[r.Addr]
			}
			if vals[r.Proc] != want {
				t.Fatalf("processor %d (%v) got %d, want %d", r.Proc, r.Op, vals[r.Proc], want)
			}
		}
		// Cells not written must be unchanged.
		written := map[Addr]bool{}
		for _, r := range batch {
			if r.Op == OpWrite {
				written[r.Addr] = true
			}
		}
		for a := 0; a < m; a++ {
			if !written[a] && mem[a] != pre[a] {
				t.Fatalf("cell %d changed without a writer", a)
			}
		}
	})
}
