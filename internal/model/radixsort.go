package model

// RadixSortConflictRecs stable-sorts flattened request records by
// (Addr, Write) — address groups ascending, reads before writes within a
// group, INPUT order preserved within equal keys — using tmp (same length
// as recs) as the ping-pong buffer. It returns the sorted slice and the
// spare buffer; depending on pass parity either may be backed by recs or
// tmp, so callers must adopt both return values.
//
// It is the sort of the quorum machine's per-step dedup pass: a batch is
// indexed by processor (see Batch), so records flattened from it arrive
// in ascending processor order, and a stable (Addr, Write) radix yields
// exactly the (Addr, Write, Proc) order the dedup walk and conflict check
// need. Addresses must be non-negative; maxAddr bounds the key space and
// hence the pass count (⌈bits/8⌉ passes of one counting sort each).
func RadixSortConflictRecs(recs, tmp []ConflictRec, maxAddr Addr) (sorted, spare []ConflictRec) {
	maxKey := uint64(maxAddr)<<1 | 1
	src, dst := recs, tmp
	var counts [256]int32
	for shift := uint(0); maxKey>>shift != 0; shift += 8 {
		counts = [256]int32{}
		for i := range src {
			counts[(recKey(&src[i])>>shift)&0xff]++
		}
		off := int32(0)
		for d := range counts {
			c := counts[d]
			counts[d] = off
			off += c
		}
		for i := range src {
			d := (recKey(&src[i]) >> shift) & 0xff
			dst[counts[d]] = src[i]
			counts[d]++
		}
		src, dst = dst, src
	}
	return src, dst
}

// recKey orders records by address, reads before writes.
func recKey(r *ConflictRec) uint64 {
	k := uint64(r.Addr) << 1
	if r.Write {
		k |= 1
	}
	return k
}
