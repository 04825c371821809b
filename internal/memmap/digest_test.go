package memmap

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// mapDigest is the FNV-1a hash of a map's copy table.
func mapDigest(mp *Map) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, mod := range mp.copies {
		binary.LittleEndian.PutUint32(buf[:], mod)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestGeneratorDigests pins the exact maps both generators draw: a seed
// names one map forever, so stored traces and goldens stay valid. The
// cases include redundancy equal to the module count (every row a
// permutation, so most draws are rejected duplicates) and bands that do
// not divide the variable or module count.
func TestGeneratorDigests(t *testing.T) {
	tight := Params{N: 4, M: 7, Mem: 100, K: 2, B: 3, C: 4}   // r = M = 7
	narrow := Params{N: 4, M: 16, Mem: 101, K: 2, B: 3, C: 3} // 3 bands of 5 or 6 modules, r = 5
	cases := []struct {
		name string
		mp   *Map
		want uint64
	}{
		{"Generate/LemmaTwo(256)", Generate(LemmaTwo(256, 2, 1), 1), 0xdbb87a9de999ca2f},
		{"Generate/LemmaOne(64)", Generate(LemmaOne(64, 2), 5), 0xe58c789adacb2f17},
		{"Generate/r=M", Generate(tight, 3), 0x524fba42b011d0d5},
		{"GenerateBanded/LemmaTwo(256)/1", GenerateBanded(LemmaTwo(256, 2, 1), 1, 1), 0xdbb87a9de999ca2f},
		{"GenerateBanded/LemmaTwo(256)/4", GenerateBanded(LemmaTwo(256, 2, 1), 9, 4), 0xa280d107ffab52f1},
		{"GenerateBanded/LemmaTwo(256)/3", GenerateBanded(LemmaTwo(256, 2, 1), 9, 3), 0x0514856a38384284},
		{"GenerateBanded/r=band", GenerateBanded(narrow, 2, 3), 0x8489641d20636857},
	}
	for _, c := range cases {
		if got := mapDigest(c.mp); got != c.want {
			t.Errorf("%s: digest %#016x, want %#016x", c.name, got, c.want)
		}
	}
}
