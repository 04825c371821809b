package memmap

import (
	"fmt"
	"math/rand"
	"slices"
)

// GenerateBanded draws a seeded pseudo-random map whose variable space and
// module space are both cut into `bands` aligned ranges: the copies of a
// band-b variable are placed only in band-b modules. Band b covers
// variables [b·m/bands, (b+1)·m/bands) and modules [b·M/bands,
// (b+1)·M/bands) (integer-floored bounds, so uneven sizes differ by at
// most one).
//
// This is the deployment map of a multi-program server: give each of K
// concurrent engines the variable band of its own simulated program and
// the engines touch DISJOINT module sets by construction — the store's
// shard-ownership invariant then lets every step of every program run in
// parallel with no merged components at all. Within each band the draw is
// exactly Generate's: 2c−1 copies in distinct modules, uniform over the
// band. Lemma 2's expansion argument applies band-wise at the scaled point
// (n/bands processors, m/bands variables, M/bands modules) — the exponents
// k and ε are preserved, so the per-band redundancy constant is unchanged;
// Audit quantifies any particular draw as usual.
//
// Cross-band accesses remain CORRECT (the map is a valid memmap.Map and
// any engine may address any variable); they only cost parallelism, since
// batches that meet in a module get merged into one serial component.
func GenerateBanded(p Params, seed int64, bands int) *Map {
	if err := p.Validate(); err != nil {
		panic("memmap.GenerateBanded: " + err.Error())
	}
	if bands < 1 {
		panic(fmt.Sprintf("memmap.GenerateBanded: bands=%d < 1", bands))
	}
	if minBand := p.M / bands; minBand < p.R() {
		panic(fmt.Sprintf(
			"memmap.GenerateBanded: %d bands leave %d modules per band, fewer than the redundancy %d",
			bands, minBand, p.R()))
	}
	rng := rand.New(rand.NewSource(seed))
	r := p.R()
	mp := &Map{P: p, copies: make([]uint32, p.Mem*r)}
	for v := 0; v < p.Mem; v++ {
		b := BandOf(v, p.Mem, bands)
		lo, hi := BandRange(b, p.M, bands)
		row := mp.copies[v*r : (v+1)*r]
		for j := range row {
			// Redraw until the module is new to the row: r is a small
			// constant, so scanning the drawn prefix beats any set.
			mod := uint32(lo + rng.Intn(hi-lo))
			for slices.Contains(row[:j], mod) {
				mod = uint32(lo + rng.Intn(hi-lo))
			}
			row[j] = mod
		}
	}
	return mp
}

// BandOf returns which of `bands` aligned ranges over a space of `size`
// indices the index i falls in: the unique b with BandRange(b)'s lo ≤ i <
// hi. (The largest b with ⌊b·size/bands⌋ ≤ i is ⌊(i·bands+bands−1)/size⌋;
// a plain ⌊i·bands/size⌋ disagrees with BandRange at boundaries when
// bands does not divide size.)
func BandOf(i, size, bands int) int {
	return (i*bands + bands - 1) / size
}

// BandRange returns the half-open index range of band b over a space of
// `size` indices cut into `bands` ranges.
func BandRange(b, size, bands int) (lo, hi int) {
	return b * size / bands, (b + 1) * size / bands
}
