package ida

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/gf"
	"repro/internal/model"
	"repro/internal/xmath"
)

// Memory is the Schuster (1987) P-RAM shared memory: the m cells are
// divided into blocks of b cells; each block is stored in recoded form as
// d versioned shares spread over d distinct modules of an n-processor MPC.
// Accessing a variable touches a quorum of (d+b)/2 shares of its block —
// any two such quorums intersect in ≥ b shares, so a read always finds b
// shares of the latest version and can decode.
//
// With b and d both Θ(log n), total memory grows only by the constant
// factor d/b, while each access processes Θ(b) elements — exactly the
// trade the paper quotes for this scheme. Implements model.Backend.
type Memory struct {
	n, m   int
	mode   model.Mode
	disp   *Dispersal
	q      int // quorum size (d+b)/2
	blocks int
	mods   int // module count (= n: MPC granularity)

	shareMod []uint32  // blocks×d: module of each share
	version  []uint32  // blocks×d: version stamp of each share
	data     []gf.Elem // blocks×d×limbs: share payloads
	clock    uint32

	// accumulated work statistics
	fieldOps int64

	// Step scratch, reused so that a step allocates nothing once grown.
	checker model.ConflictChecker
	vals    []model.Word
	recs    []blockRec
	applied []bool   // per cell offset of the block being written
	loads   []int32  // per module: share accesses since the last drainLoads
	touched []uint32 // modules whose load is nonzero
	quorum  []int    // quorumShares' subset
	take    []int    // indices of the shares a read decodes from
	shares  gf.Vec   // one limb plane of those shares
	planes  [limbs]gf.Vec
	encoded [limbs]gf.Vec
}

// blockRec is one active request of a step. Sorted by (block, processor),
// a block's requests form one run in ascending processor order, the order
// the conflict modes resolve writes in.
type blockRec struct {
	blk, off int // block and cell offset within it
	proc     int // processor, the request's batch index
	val      model.Word
	write    bool
}

// limbs is the number of 16-bit field elements a 64-bit word splits into.
const limbs = 4

// Config sizes the memory.
type Config struct {
	// MemCells is m, the number of shared cells (default n²).
	MemCells int
	// BlockLen is b (default max(2, ceil(log2 n)) — the paper's Θ(log n)).
	BlockLen int
	// Shares is d (default 2b, storage blowup 2).
	Shares int
	// Mode is the conflict convention (default CRCW-Priority).
	Mode model.Mode
	// Seed scatters shares over modules.
	Seed int64
}

// NewMemory builds a Schuster memory for an n-processor machine.
func NewMemory(n int, cfg Config) *Memory {
	if cfg.MemCells == 0 {
		cfg.MemCells = n * n
	}
	if cfg.BlockLen == 0 {
		cfg.BlockLen = max(2, xmath.CeilLog2(n))
	}
	if cfg.Shares == 0 {
		cfg.Shares = 2 * cfg.BlockLen
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Shares > n {
		panic(fmt.Sprintf("ida.NewMemory: d=%d shares need d distinct modules but M=n=%d", cfg.Shares, n))
	}
	disp := NewDispersal(cfg.BlockLen, cfg.Shares)
	blocks := xmath.CeilDiv(cfg.MemCells, cfg.BlockLen)
	mem := &Memory{
		n:    n,
		m:    cfg.MemCells,
		mode: cfg.Mode,
		disp: disp,
		// Quorum ceil((d+b)/2): any two quorums intersect in ≥ b shares.
		q:        (cfg.Shares + cfg.BlockLen + 1) / 2,
		blocks:   blocks,
		mods:     n,
		shareMod: make([]uint32, blocks*cfg.Shares),
		// Every block starts as the all-zero block at version 0: its
		// shares, evaluations of the zero polynomial, are the zeros make
		// leaves in data.
		version: make([]uint32, blocks*cfg.Shares),
		data:    make([]gf.Elem, blocks*cfg.Shares*limbs),
		applied: make([]bool, cfg.BlockLen),
		loads:   make([]int32, n),
	}
	mem.placeShares(cfg.Seed)
	return mem
}

// placeShares assigns each block's d shares to d distinct modules,
// deterministically from the seed.
func (mem *Memory) placeShares(seed int64) {
	d := mem.disp.D()
	for blk := 0; blk < mem.blocks; blk++ {
		seen := make(map[uint32]bool, d)
		for s := 0; s < d; s++ {
			h := mix(uint64(seed) ^ uint64(blk)*0x9e37 ^ uint64(s)<<32)
			mod := uint32(h % uint64(mem.mods))
			for seen[mod] {
				h = mix(h)
				mod = uint32(h % uint64(mem.mods))
			}
			seen[mod] = true
			mem.shareMod[blk*d+s] = mod
		}
	}
}

// Name implements model.Backend.
func (mem *Memory) Name() string {
	return fmt.Sprintf("Schuster-IDA(n=%d, b=%d, d=%d)", mem.n, mem.disp.B(), mem.disp.D())
}

// MemSize implements model.Backend.
func (mem *Memory) MemSize() int { return mem.m }

// Procs implements model.Backend.
func (mem *Memory) Procs() int { return mem.n }

// Blowup returns the storage expansion d/b (the scheme's "redundancy" in
// space, a constant by construction).
func (mem *Memory) Blowup() float64 { return mem.disp.Blowup() }

// QuorumSize returns (d+b)/2, the shares touched per access.
func (mem *Memory) QuorumSize() int { return mem.q }

// FieldOps returns the field-operation work accumulated by ExecuteStep —
// the scheme's hidden Θ(log n) per-access cost. ReadCell and LoadCells,
// the free verification and setup views, add nothing.
func (mem *Memory) FieldOps() int64 { return mem.fieldOps }

// ExecuteStep implements model.Backend. It is allocation-free in steady
// state: the step is grouped by block by sorting reusable records, module
// loads are counted in a per-module slice, and every share, plane and
// quorum buffer is scratch reused across steps. An active batch entry i
// must be processor i's request (model.Batch); a mismatched entry is
// refused with a panic that names it.
//
//pram:hotpath
func (mem *Memory) ExecuteStep(batch model.Batch) model.StepReport {
	if cap(mem.vals) < len(batch) {
		mem.vals = make([]model.Word, len(batch))
	}
	mem.vals = mem.vals[:len(batch)]
	clear(mem.vals)
	rep := model.StepReport{Values: mem.vals, Err: mem.checker.Check(batch, mem.mode)}

	// Group the step's accesses by block.
	b := mem.disp.B()
	recs := mem.recs[:0]
	for i, r := range batch {
		if r.Op == model.OpNone {
			continue
		}
		if r.Proc != i {
			//pram:coldalloc caller-contract panic guard, never taken in steady state
			panic(fmt.Sprintf("ida: batch entry %d holds processor %d's request", i, r.Proc))
		}
		recs = append(recs, blockRec{blk: r.Addr / b, off: r.Addr % b, proc: i,
			val: r.Value, write: r.Op == model.OpWrite})
	}
	mem.recs = recs
	slices.SortFunc(recs, func(x, y blockRec) int {
		if x.blk != y.blk {
			return cmp.Compare(x.blk, y.blk)
		}
		return cmp.Compare(x.proc, y.proc)
	})

	mem.clock++
	for lo := 0; lo < len(recs); {
		blk, hi := recs[lo].blk, lo+1
		for hi < len(recs) && recs[hi].blk == blk {
			hi++
		}
		run := recs[lo:hi]
		lo = hi
		block := mem.readBlock(blk)
		mem.fieldOps += limbs * mem.disp.FieldOpsDecode()
		// Reads observe pre-step state.
		writes := false
		for i := range run {
			if run[i].write {
				writes = true
			} else {
				rep.Values[run[i].proc] = decodeWord(block, run[i].off)
			}
		}
		// Apply this block's writes per conflict mode, in ascending
		// processor order, then re-disperse.
		if !writes {
			continue
		}
		clear(mem.applied)
		for i := range run {
			w := &run[i]
			if !w.write {
				continue
			}
			if mem.mode == model.CRCWArbitrary {
				encodeWord(block, w.off, w.val) // last (highest proc) wins
			} else if !mem.applied[w.off] {
				encodeWord(block, w.off, w.val) // first (lowest proc) wins
				mem.applied[w.off] = true
			}
		}
		mem.writeBlock(blk, block)
	}
	// Cost: the step's share accesses are served by modules of bandwidth
	// one per phase, so the step takes max-module-load phases.
	maxLoad, accesses := mem.drainLoads()
	rep.Time = int64(maxLoad)
	rep.Phases = maxLoad
	rep.CopyAccesses = accesses
	rep.ModuleContention = maxLoad
	return rep
}

// count records one share access served by module mod.
func (mem *Memory) count(mod uint32) {
	if mem.loads[mod] == 0 {
		mem.touched = append(mem.touched, mod)
	}
	mem.loads[mod]++
}

// drainLoads returns the largest module load and the total share accesses
// counted since the last drain, and zeroes the counts.
func (mem *Memory) drainLoads() (maxLoad int, accesses int64) {
	for _, mod := range mem.touched {
		l := int(mem.loads[mod])
		maxLoad = max(maxLoad, l)
		accesses += int64(l)
		mem.loads[mod] = 0
	}
	mem.touched = mem.touched[:0]
	return maxLoad, accesses
}

// quorumShares returns the deterministic, version-rotated q-subset of
// share indices used for this access. The slice is scratch, valid until
// the next call.
func (mem *Memory) quorumShares(blk int, salt uint32) []int {
	d := mem.disp.D()
	start := int(mix(uint64(blk)<<32|uint64(salt)) % uint64(d))
	out := mem.quorum[:0]
	for i := 0; i < mem.q; i++ {
		out = append(out, (start+i)%d)
	}
	mem.quorum = out
	return out
}

// readBlock gathers a read quorum, finds the newest version, and decodes
// the block's limb planes into scratch, which stays valid until the next
// readBlock. It counts module loads but no field operations: ExecuteStep
// charges those, so ReadCell and LoadCells stay free.
func (mem *Memory) readBlock(blk int) []gf.Vec {
	d := mem.disp.D()
	idxs := mem.quorumShares(blk, mem.clock)
	newest := uint32(0)
	for _, s := range idxs {
		mem.count(mem.shareMod[blk*d+s])
		if v := mem.version[blk*d+s]; v > newest {
			newest = v
		}
	}
	// Collect b shares carrying the newest version (quorum intersection
	// guarantees at least b exist among the q read).
	take := mem.take[:0]
	for _, s := range idxs {
		if mem.version[blk*d+s] == newest {
			take = append(take, s)
		}
		if len(take) == mem.disp.B() {
			break
		}
	}
	mem.take = take
	if len(take) < mem.disp.B() {
		panic(fmt.Sprintf("ida: quorum intersection violated at block %d: %d fresh shares < b=%d",
			blk, len(take), mem.disp.B()))
	}
	for pl := range mem.planes {
		shares := mem.shares[:0]
		for _, s := range take {
			shares = append(shares, mem.data[(blk*d+s)*limbs+pl])
		}
		mem.shares = shares
		mem.planes[pl] = mem.disp.Decode(mem.planes[pl][:0], take, shares)
	}
	return mem.planes[:]
}

// writeBlock re-encodes the block and installs a write quorum of shares
// with a fresh version.
func (mem *Memory) writeBlock(blk int, planes []gf.Vec) {
	d := mem.disp.D()
	newVersion := mem.clock
	for pl := range mem.encoded {
		mem.encoded[pl] = mem.disp.Encode(mem.encoded[pl][:0], planes[pl])
		mem.fieldOps += mem.disp.FieldOpsEncode()
	}
	for _, s := range mem.quorumShares(blk, mem.clock^0x5bd1) {
		mem.count(mem.shareMod[blk*d+s])
		mem.version[blk*d+s] = newVersion
		for pl := 0; pl < limbs; pl++ {
			mem.data[(blk*d+s)*limbs+pl] = mem.encoded[pl][s]
		}
	}
}

// ReadCell implements model.Backend (zero-cost verification view: it
// changes neither FieldOps nor the next step's costs).
func (mem *Memory) ReadCell(a model.Addr) model.Word {
	block := mem.readBlock(a / mem.disp.B())
	mem.drainLoads()
	return decodeWord(block, a%mem.disp.B())
}

// LoadCells implements model.Backend: bulk initialization re-disperses the
// touched blocks at full width (all d shares, version 0 semantics kept by
// bumping the clock so later quorum reads see consistency).
func (mem *Memory) LoadCells(base model.Addr, vals []model.Word) {
	b := mem.disp.B()
	d := mem.disp.D()
	touched := map[int]bool{}
	for i := range vals {
		touched[(base+i)/b] = true
	}
	mem.clock++
	//pram:unordered distinct blocks touch disjoint planes; the load counts accumulate commutatively
	for blk := range touched {
		planes := mem.readBlock(blk)
		for i, v := range vals {
			if (base+i)/b == blk {
				encodeWord(planes, (base+i)%b, v)
			}
		}
		// Install ALL d shares (setup is free and total).
		newVersion := mem.clock
		for pl := range mem.encoded {
			enc := mem.disp.Encode(mem.encoded[pl][:0], planes[pl])
			mem.encoded[pl] = enc
			for s := 0; s < d; s++ {
				mem.data[(blk*d+s)*limbs+pl] = enc[s]
				mem.version[blk*d+s] = newVersion
			}
		}
	}
	mem.drainLoads()
}

// encodeWord splits a 64-bit word into the block's four 16-bit limb planes
// at cell offset off.
func encodeWord(planes []gf.Vec, off int, w model.Word) {
	u := uint64(w)
	for pl := 0; pl < limbs; pl++ {
		planes[pl][off] = gf.Elem((u >> (16 * pl)) & 0xffff)
	}
}

// decodeWord reassembles a 64-bit word from the limb planes.
func decodeWord(planes []gf.Vec, off int) model.Word {
	var u uint64
	for pl := 0; pl < limbs; pl++ {
		u |= uint64(planes[pl][off]) << (16 * pl)
	}
	return model.Word(u)
}

// mix is splitmix64's finalizer.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
