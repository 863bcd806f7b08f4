// Package cache implements the set-associative cache arrays used by both
// machine models: split 2-way L1 I/D caches and 16-way unified L2s, with
// true-LRU replacement and per-line coherence state (MOSI states; the
// multi-chip model uses the MSI subset).
//
// The cache operates on block numbers (byte address >> memmap.BlockBits),
// is purely functional (no timing), and never stores data — only tags and
// states, which is all a trace-collection study needs.
//
// Storage layout (the simulator's innermost loop): each line is one packed
// uint64 — the block number in the low 62 bits and the coherence state in
// the top two — so a way scan walks a single contiguous array instead of
// parallel tag/state/timestamp slices. Replacement is true LRU with
// victim choice identical to a global-timestamp implementation, but the
// bookkeeping is specialized by associativity:
//
//   - 2-way sets (the L1s, the hottest arrays in the simulator): LRU is a
//     single MRU byte per set — the victim is the other way — and the
//     read-hit path is two tag compares plus a one-byte store.
//   - 16-way sets (the L2s): a 32-byte per-set header holds the recency
//     rank bytes (byte w = rank of way w, 0 = MRU), updated with
//     branch-free SWAR arithmetic, and the valid mask. The simulators
//     never search an L2 set: their coherence state (the DSM directory's
//     sharer bits, the CMP presence vector's L2 way byte) records the
//     way of every resident block exactly, so they address the line
//     directly with Line(block, way) and a touch writes only the header.
//   - other widths (tests): one SWAR rank word per set plus a valid mask.
//
// Block-keyed lookups (Probe, ReadHit, Invalidate, ...) scan the set's tag
// words at every width. Free ways come from the valid mask (or the tag
// words themselves for 2-way sets), so a miss-then-fill sequence
// (Probe/ReadHit + Fill) scans each set at most once.
package cache

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// State is a coherence state for one cache line.
type State uint8

const (
	// Invalid: the line holds no block.
	Invalid State = iota
	// Shared: read-only copy; memory (or a remote owner) is up to date.
	Shared
	// Owned: dirty copy responsible for supplying data, other copies may
	// exist (MOSI; used by the single-chip protocol).
	Owned
	// Modified: sole dirty copy.
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Owned:
		return "O"
	case Modified:
		return "M"
	}
	return "?"
}

// Dirty reports whether the state obliges a writeback on eviction.
func (s State) Dirty() bool { return s == Owned || s == Modified }

// Line packing: block number in the low bits, state in the top two. All
// valid states are non-zero, so a line word is 0 iff the line is invalid.
const (
	stateShift = 62
	blockMask  = uint64(1)<<stateShift - 1
)

// MaxWays bounds associativity: the per-set metadata (rank bytes, valid
// mask) is laid out for at most 16 ways.
const MaxWays = 16

// SWAR constants: byte lanes.
const (
	l8 = 0x0101010101010101
	h8 = 0x8080808080808080
)

// Wide-set header layout: one 32-byte record per set holding what a touch
// or a fill needs — rank bytes and the valid mask — so those operations
// write a single host cache line and read the tag array only for the
// victim's block number and state.
const (
	metaStride = 32 // bytes 0..15 rank bytes, 16..17 valid
	metaRanks  = 0
	metaValid  = 16
)

// Config sizes a cache.
type Config struct {
	Bytes     int // total capacity in bytes
	Ways      int // associativity
	BlockBits int // log2 of block size
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int { return c.Bytes / ((1 << c.BlockBits) * c.Ways) }

// Cache is one set-associative cache array. The zero value is unusable;
// call New.
type Cache struct {
	cfg       Config
	setMask   uint64
	ways      int
	waysShift uint     // log2(ways): line i belongs to set i>>waysShift
	fullMask  uint16   // all ways valid
	lines     []uint64 // packed state|block words, 0 == invalid
	mru       []uint8  // 2-way sets: most recently used way (LRU = 1-mru)
	ranks     []uint64 // 3..8-way sets: one rank word per set
	meta      []uint8  // wide sets: 32-byte header (ranks + valid mask)
	valid     []uint16 // per-set bitmask of valid ways (unused for 2-way)

	// Statistics.
	Evictions uint64
}

// wide reports whether the header layout is in use.
func (c *Cache) wide() bool { return c.meta != nil }

// New builds a cache. It panics if the geometry is inconsistent (caches are
// constructed from trusted static configuration): the set count and way
// count must be powers of two, with at most MaxWays ways.
func New(cfg Config) *Cache {
	sets := cfg.Sets()
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d must be a positive power of two (cfg %+v)", sets, cfg))
	}
	if cfg.Ways <= 0 || cfg.Ways > MaxWays || cfg.Ways&(cfg.Ways-1) != 0 {
		panic(fmt.Sprintf("cache: way count %d must be a power of two in [1,%d] (cfg %+v)", cfg.Ways, MaxWays, cfg))
	}
	waysShift := uint(0)
	for 1<<waysShift < cfg.Ways {
		waysShift++
	}
	c := &Cache{
		cfg:       cfg,
		setMask:   uint64(sets - 1),
		ways:      cfg.Ways,
		waysShift: waysShift,
		fullMask:  uint16(1)<<cfg.Ways - 1,
		lines:     make([]uint64, sets*cfg.Ways),
	}
	// LRU layout by associativity. 2-way sets (the L1s, the hottest
	// arrays in the simulator) need only an MRU byte: the victim is the
	// other way. Mid-width sets keep one rank word; wide sets colocate
	// rank bytes with the valid mask. Identity initial ranks with
	// 0xFF padding (never touched, never the LRU); the initial permutation
	// is irrelevant for victim choice because invalid ways are always
	// filled first, and filling touches.
	switch {
	case cfg.Ways <= 2:
		c.mru = make([]uint8, sets)
	case cfg.Ways <= 8:
		c.valid = make([]uint16, sets)
		c.ranks = make([]uint64, sets)
		var ident uint64
		for w := 0; w < 8; w++ {
			b := uint64(0xFF)
			if w < cfg.Ways {
				b = uint64(w)
			}
			ident |= b << uint(w*8)
		}
		for set := range c.ranks {
			c.ranks[set] = ident
		}
	default:
		c.meta = make([]uint8, sets*metaStride)
		for set := 0; set < sets; set++ {
			for w := 0; w < 16; w++ {
				r := uint8(0xFF)
				if w < cfg.Ways {
					r = uint8(w)
				}
				c.meta[set*metaStride+metaRanks+w] = r
			}
		}
	}
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// line index helpers
func (c *Cache) setOf(block uint64) int { return int(block & c.setMask) }

// Line returns the line index of way in block's set: the direct address of
// a block whose way the caller already knows (the simulators keep it in
// their coherence state), so no tag is compared.
func (c *Cache) Line(block uint64, way int) int {
	return c.setOf(block)<<c.waysShift | way
}

// Way returns line i's way within its set.
func (c *Cache) Way(i int) int { return i & (c.ways - 1) }

// findWay locates block's line index with a scan of its set's tag words,
// or returns -1.
func (c *Cache) findWay(block uint64) int {
	base := c.setOf(block) << c.waysShift
	s := c.lines[base : base+c.ways]
	for i, w := range s {
		if w&blockMask == block && w != 0 {
			return base + i
		}
	}
	return -1
}

// Probe finds block with a single way scan and no LRU effect.
// Callers decide whether the access "uses" the line (Touch); a miss is
// filled without rescanning by Fill.
func (c *Cache) Probe(block uint64) (line int, hit bool) {
	i := c.findWay(block)
	return i, i >= 0
}

// readHit2 is the 2-way ReadHit fast path: two tag compares and a
// one-byte MRU store, small enough to inline into the simulator's access
// functions.
func (c *Cache) readHit2(block uint64) bool {
	set := int(block & c.setMask)
	base := set << 1
	if w := c.lines[base]; w&blockMask == block && w != 0 {
		c.mru[set] = 0
		return true
	}
	if w := c.lines[base+1]; w&blockMask == block && w != 0 {
		c.mru[set] = 1
		return true
	}
	return false
}

// readHitSlow covers every layout but the 2-way one: a tag scan, then a
// touch on a hit.
func (c *Cache) readHitSlow(block uint64) bool {
	i := c.findWay(block)
	if i < 0 {
		return false
	}
	c.Touch(i)
	return true
}

// ReadHit is the fused hot path for read/fetch accesses: one
// scan that, on a hit, also marks the line most recently used. It reports
// whether block was resident; on a miss the caller proceeds to the next
// level and eventually Fills.
func (c *Cache) ReadHit(block uint64) bool {
	if c.ways == 2 {
		return c.readHit2(block)
	}
	return c.readHitSlow(block)
}

// WriteHit is the fused store probe: one scan that reports residency and,
// when the line is already Modified (the store fast path), touches it.
// A hit in a weaker state is returned untouched with its line index so
// the caller's upgrade path needs no second scan.
func (c *Cache) WriteHit(block uint64) (line int, hit, modified bool) {
	const mod = uint64(Modified) << stateShift
	if c.ways == 2 {
		set := int(block & c.setMask)
		base := set << 1
		if w := c.lines[base]; w != 0 && w&blockMask == block {
			if w == block|mod {
				c.mru[set] = 0
				return base, true, true
			}
			return base, true, false
		}
		if w := c.lines[base+1]; w != 0 && w&blockMask == block {
			if w == block|mod {
				c.mru[set] = 1
				return base + 1, true, true
			}
			return base + 1, true, false
		}
		return -1, false, false
	}
	i := c.findWay(block)
	if i < 0 {
		return -1, false, false
	}
	if c.lines[i] == block|mod {
		c.Touch(i)
		return i, true, true
	}
	return i, true, false
}

// bump increments every rank byte below r by one: per byte, x < r iff
// (x|0x80)-r has its high bit clear (ranks are < 128, so the per-byte
// subtraction never borrows into a neighbor). Padding bytes are 0xFF and
// never move.
func bump(w, r uint64) uint64 {
	d := (w | h8) - r*l8
	return w + (^d&h8)>>7
}

// touchNarrow moves way to rank 0 of a single-rank-word set.
func (c *Cache) touchNarrow(set, way int) {
	sh := uint(way) * 8
	w := c.ranks[set]
	r := w >> sh & 0xFF
	if r != 0 {
		c.ranks[set] = bump(w, r) &^ (0xFF << sh)
	}
}

// touchWide moves way to rank 0 of a wide set's header (off is the
// header's byte offset).
func (c *Cache) touchWide(off, way int) {
	rb := c.meta[off+metaRanks : off+metaStride : off+metaStride]
	r := uint64(rb[way])
	if r == 0 {
		return
	}
	w0 := binary.LittleEndian.Uint64(rb)
	w1 := binary.LittleEndian.Uint64(rb[8:])
	binary.LittleEndian.PutUint64(rb, bump(w0, r))
	binary.LittleEndian.PutUint64(rb[8:], bump(w1, r))
	rb[way] = 0
}

// touchWay moves way to rank 0 of set's order, aging everything that was
// more recent.
func (c *Cache) touchWay(set, way int) {
	if c.mru != nil {
		c.mru[set] = uint8(way)
		return
	}
	if c.wide() {
		c.touchWide(set*metaStride, way)
		return
	}
	c.touchNarrow(set, way)
}

// lruWay returns the way at rank ways-1 (the eviction victim) via a
// zero-byte search; exactly one byte matches because ranks are a
// permutation.
func (c *Cache) lruWay(set int) int {
	if c.mru != nil {
		// The victim is the other way (or way 0 when ways == 1).
		return int(c.mru[set]) ^ (c.ways - 1)
	}
	target := uint64(c.ways-1) * l8
	if c.wide() {
		off := set * metaStride
		z := binary.LittleEndian.Uint64(c.meta[off+metaRanks:]) ^ target
		if m := (z - l8) & ^z & h8; m != 0 {
			return bits.TrailingZeros64(m) >> 3
		}
		z = binary.LittleEndian.Uint64(c.meta[off+metaRanks+8:]) ^ target
		m := (z - l8) & ^z & h8
		return 8 + bits.TrailingZeros64(m)>>3
	}
	z := c.ranks[set] ^ target
	m := (z - l8) & ^z & h8
	return bits.TrailingZeros64(m) >> 3
}

// Touch marks line i as most recently used.
func (c *Cache) Touch(i int) {
	set := i >> c.waysShift
	c.touchWay(set, i-set<<c.waysShift)
}

// State returns the coherence state of line i.
func (c *Cache) State(i int) State { return State(c.lines[i] >> stateShift) }

// SetState updates the coherence state of line i; setting Invalid frees the
// line.
func (c *Cache) SetState(i int, s State) {
	if s == Invalid {
		c.lines[i] = 0
		set := i >> c.waysShift
		c.clearValid(set, i-set<<c.waysShift)
		return
	}
	c.lines[i] = c.lines[i]&blockMask | uint64(s)<<stateShift
}

// validMask returns set's valid-way mask (not for the 2-way layout, which
// derives validity from the tag words).
func (c *Cache) validMask(set int) uint16 {
	if c.wide() {
		return binary.LittleEndian.Uint16(c.meta[set*metaStride+metaValid:])
	}
	return c.valid[set]
}

// setValidMask stores set's valid-way mask (not for the 2-way layout).
func (c *Cache) setValidMask(set int, v uint16) {
	if c.wide() {
		binary.LittleEndian.PutUint16(c.meta[set*metaStride+metaValid:], v)
	} else {
		c.valid[set] = v
	}
}

// clearValid drops way's valid bit in whichever layout tracks it (the
// 2-way layout derives validity from the tag words and tracks nothing).
func (c *Cache) clearValid(set, way int) {
	if c.mru == nil {
		c.setValidMask(set, c.validMask(set)&^(1<<uint(way)))
	}
}

// Block returns the block number held by line i.
func (c *Cache) Block(i int) uint64 { return c.lines[i] & blockMask }

// Victim describes a line displaced by a fill.
type Victim struct {
	Block uint64
	State State
}

// Fill allocates block with the given state after a probe miss, without
// rescanning the set: the lowest invalid way (from the valid mask) is used
// when one exists, otherwise the LRU line is evicted and returned as the
// victim. The caller must have observed block missing from the set; Fill
// does not re-check residency.
func (c *Cache) Fill(block uint64, s State) (victim Victim, evicted bool, line int) {
	if c.mru != nil {
		return c.fill2(block, s)
	}
	set := c.setOf(block)
	var way int
	if v := c.validMask(set); v != c.fullMask {
		way = bits.TrailingZeros16(^v)
		c.setValidMask(set, v|1<<uint(way))
	} else {
		way = c.lruWay(set)
		line = set<<c.waysShift + way
		w := c.lines[line]
		victim = Victim{Block: w & blockMask, State: State(w >> stateShift)}
		evicted = true
		c.Evictions++
	}
	line = set<<c.waysShift + way
	c.lines[line] = block | uint64(s)<<stateShift
	c.touchWay(set, way)
	return victim, evicted, line
}

// fill2 is Fill for the 2-way layout: free ways are read straight off the
// (already hot) tag words; the victim is the non-MRU way.
func (c *Cache) fill2(block uint64, s State) (victim Victim, evicted bool, line int) {
	set := c.setOf(block)
	base := set << c.waysShift
	var way int
	switch {
	case c.lines[base] == 0:
		way = 0
	case c.ways == 2 && c.lines[base+1] == 0:
		way = 1
	default:
		way = int(c.mru[set]) ^ (c.ways - 1)
		line = base + way
		w := c.lines[line]
		victim = Victim{Block: w & blockMask, State: State(w >> stateShift)}
		evicted = true
		c.Evictions++
	}
	line = base + way
	c.lines[line] = block | uint64(s)<<stateShift
	c.mru[set] = uint8(way)
	return victim, evicted, line
}

// Invalidate removes block if present, returning its prior state.
func (c *Cache) Invalidate(block uint64) (State, bool) {
	i := c.findWay(block)
	if i < 0 {
		return Invalid, false
	}
	s := State(c.lines[i] >> stateShift)
	c.lines[i] = 0
	set := i >> c.waysShift
	c.clearValid(set, i-set<<c.waysShift)
	return s, true
}

// FindSetState updates block's state in place if the block is resident,
// in a single scan. The new state must be a valid (non-Invalid) state.
func (c *Cache) FindSetState(block uint64, s State) bool {
	i := c.findWay(block)
	if i < 0 {
		return false
	}
	c.lines[i] = block | uint64(s)<<stateShift
	return true
}

// Contains reports whether block is resident (no LRU effect).
func (c *Cache) Contains(block uint64) bool {
	return c.findWay(block) >= 0
}

// Occupancy returns the number of valid lines (diagnostics).
func (c *Cache) Occupancy() int {
	n := 0
	for _, w := range c.lines {
		if w != 0 {
			n++
		}
	}
	return n
}
