package memmap

import "fmt"

// Map is a memory map Γ: variable → the 2c−1 distinct modules holding its
// copies. Copies of one variable always reside in distinct modules, so a
// module holds at most one copy of any variable (the paper's standing
// assumption; it is what lets quorum accesses proceed in parallel).
type Map struct {
	P      Params
	copies []uint32 // m × r, row-major: copies[v*r+j] = module of copy j
}

// Generate draws a seeded pseudo-random map for the given parameters. The
// proofs of Lemma 1/Lemma 2 show that all but a vanishing fraction of maps
// have the expansion property, so a random draw is precisely the object the
// paper reasons about; use Audit to quantify a particular draw. It is
// GenerateBanded with a single band.
func Generate(p Params, seed int64) *Map {
	return GenerateBanded(p, seed, 1)
}

// R returns the redundancy (copies per variable).
func (mp *Map) R() int { return mp.P.R() }

// Vars returns the number of variables the map covers.
func (mp *Map) Vars() int { return mp.P.Mem }

// Modules returns the module count M.
func (mp *Map) Modules() int { return mp.P.M }

// Copies returns the modules holding v's copies. The returned slice aliases
// the map's storage and must not be modified.
func (mp *Map) Copies(v int) []uint32 {
	r := mp.R()
	return mp.copies[v*r : (v+1)*r]
}

// ModuleOf returns the module holding copy j of variable v.
func (mp *Map) ModuleOf(v, j int) int { return int(mp.copies[v*mp.R()+j]) }

// ModuleLoads returns, for each module, how many variable copies it stores.
// A balanced map keeps these near m·r/M.
func (mp *Map) ModuleLoads() []int {
	loads := make([]int, mp.P.M)
	for _, mod := range mp.copies {
		loads[mod]++
	}
	return loads
}

// CheckDistinct verifies the distinct-modules invariant for every variable,
// returning the first violating variable or −1.
func (mp *Map) CheckDistinct() int {
	r := mp.R()
	seen := make(map[uint32]bool, r)
	for v := 0; v < mp.P.Mem; v++ {
		clear(seen)
		for _, mod := range mp.Copies(v) {
			if seen[mod] {
				return v
			}
			seen[mod] = true
		}
	}
	return -1
}

// BytesPerProcessor returns the size of the address look-up table each
// processor must store, O(m·r·log M) bits rendered in bytes — the cost the
// paper's conclusion laments and proposes the P-ROM to shrink.
func (mp *Map) BytesPerProcessor() int64 {
	bitsPerEntry := 1
	for 1<<bitsPerEntry < mp.P.M {
		bitsPerEntry++
	}
	return int64(mp.P.Mem) * int64(mp.R()) * int64(bitsPerEntry) / 8
}

// String describes the map.
func (mp *Map) String() string {
	return fmt.Sprintf("memmap{%s}", mp.P)
}
