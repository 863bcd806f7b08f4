// Package coherence holds the protocol bookkeeping shared by the two
// machine models in internal/sim: a full-map MSI directory for the 16-node
// distributed-shared-memory system, and per-block L1 presence tracking for
// the 4-core single-chip system's Piranha-like MOSI protocol.
//
// Both structures are flat arrays indexed by block number, which works
// because the simulated address space is compact (see internal/memmap).
//
// Both also record where each block sits in the L2 they cover, so the
// simulators address an L2 line directly instead of searching its set:
// the directory keeps one 4-bit way per sharer node, the presence vector
// one way byte for the shared L2. The simulators keep these exact — a
// way is recorded exactly while the L2 holds the block.
package coherence

import "math/bits"

// MaxNodes bounds the sharer bitmap width (and the per-node L2 ways,
// four bits each, that fill one uint64 per block).
const MaxNodes = 16

// Directory is a full-map MSI directory: for every block it records the
// set of sharer nodes, the L2 way each sharer holds it in, and the
// exclusive owner, if any. State is implicit: owner >= 0 means Modified at
// owner; otherwise a non-empty sharer set means Shared; otherwise the block
// is uncached.
type Directory struct {
	sharers []uint16
	owner   []int16
	ways    []uint64 // 4-bit L2 way per node; valid only for sharers
}

// NewDirectory sizes a directory for nblocks blocks.
func NewDirectory(nblocks uint64) *Directory {
	d := &Directory{
		sharers: make([]uint16, nblocks),
		owner:   make([]int16, nblocks),
		ways:    make([]uint64, nblocks),
	}
	for i := range d.owner {
		d.owner[i] = -1
	}
	return d
}

// Owner returns the exclusive owner of block, or -1.
func (d *Directory) Owner(block uint64) int { return int(d.owner[block]) }

// Sharers returns the sharer bitmap for block (the owner included).
func (d *Directory) Sharers(block uint64) uint16 { return d.sharers[block] }

// Way returns the L2 way node holds block in, and whether node is a sharer
// at all (the way is meaningless otherwise).
func (d *Directory) Way(block uint64, node int) (way int, ok bool) {
	return int(d.ways[block] >> (4 * uint(node)) & 0xF), d.sharers[block]>>uint(node)&1 != 0
}

// setWay records node's L2 way for block.
func (d *Directory) setWay(block uint64, node, way int) {
	sh := 4 * uint(node)
	d.ways[block] = d.ways[block]&^(0xF<<sh) | uint64(way)<<sh
}

// AddSharer records node as holding a shared copy in L2 way way.
func (d *Directory) AddSharer(block uint64, node, way int) {
	d.sharers[block] |= 1 << uint(node)
	d.setWay(block, node, way)
}

// RemoveSharer drops node's copy (used on cache evictions).
func (d *Directory) RemoveSharer(block uint64, node int) {
	d.sharers[block] &^= 1 << uint(node)
	if int(d.owner[block]) == node {
		d.owner[block] = -1
	}
}

// SetOwner makes node the exclusive modified owner, holding block in L2
// way way, and clears all other sharers. The caller is responsible for
// invalidating the previous copies.
func (d *Directory) SetOwner(block uint64, node, way int) {
	d.sharers[block] = 1 << uint(node)
	d.owner[block] = int16(node)
	d.setWay(block, node, way)
}

// Downgrade demotes a Modified block to Shared (owner keeps a copy).
func (d *Directory) Downgrade(block uint64) {
	d.owner[block] = -1
}

// Clear removes all copies (DMA writes and non-allocating stores
// invalidate every cache).
func (d *Directory) Clear(block uint64) {
	d.sharers[block] = 0
	d.owner[block] = -1
}

// ForEachSharer calls fn for every node holding a copy of block, except
// skip (pass -1 to visit all).
func (d *Directory) ForEachSharer(block uint64, skip int, fn func(node int)) {
	bits := d.sharers[block]
	for bits != 0 {
		n := trailingZeros(uint64(bits))
		bits &^= 1 << uint(n)
		if n != skip {
			fn(n)
		}
	}
}

// Presence tracks, for the single-chip system, which cores' private L1s
// hold each block (a bitmap over cores, covering both L1I and L1D) and
// which core owns it dirty (Modified or Owned in its L1D), mirroring the
// duplicate-tag "shadow directory" of Piranha's intra-chip protocol. It
// also records the way the (non-inclusive) shared L2 holds each block in.
type Presence struct {
	bits  []uint8
	owner []int8
	l2    []uint8 // L2 way + 1, or 0 when the L2 does not hold the block
}

// NewPresence sizes presence tracking for nblocks blocks and up to 8 cores.
func NewPresence(nblocks uint64) *Presence {
	p := &Presence{
		bits:  make([]uint8, nblocks),
		owner: make([]int8, nblocks),
		l2:    make([]uint8, nblocks),
	}
	for i := range p.owner {
		p.owner[i] = -1
	}
	return p
}

// Holders returns the bitmap of cores with an L1 copy of block.
func (p *Presence) Holders(block uint64) uint8 { return p.bits[block] }

// HasPeer reports whether any core other than cpu holds block in an L1.
func (p *Presence) HasPeer(block uint64, cpu int) bool {
	return p.bits[block]&^(1<<uint(cpu)) != 0
}

// Owner returns the core holding block dirty (M or O), or -1.
func (p *Presence) Owner(block uint64) int { return int(p.owner[block]) }

// L2Way returns the shared L2's way holding block, or -1 when the L2 does
// not hold it.
func (p *Presence) L2Way(block uint64) int { return int(p.l2[block]) - 1 }

// SetL2Way records the shared L2's way holding block (-1: not held).
func (p *Presence) SetL2Way(block uint64, way int) { p.l2[block] = uint8(way + 1) }

// Add records an L1 fill at cpu.
func (p *Presence) Add(block uint64, cpu int) { p.bits[block] |= 1 << uint(cpu) }

// Remove records an L1 eviction or invalidation at cpu.
func (p *Presence) Remove(block uint64, cpu int) {
	p.bits[block] &^= 1 << uint(cpu)
	if int(p.owner[block]) == cpu {
		p.owner[block] = -1
	}
}

// SetOwner marks cpu as the dirty owner of block.
func (p *Presence) SetOwner(block uint64, cpu int) {
	p.bits[block] |= 1 << uint(cpu)
	p.owner[block] = int8(cpu)
}

// ClearOwner drops dirty ownership, keeping the copy (M/O -> S transitions
// where the owner's data was written back to the L2).
func (p *Presence) ClearOwner(block uint64) { p.owner[block] = -1 }

// Clear removes every L1 record for block (invalidation by writes, DMA, or
// non-allocating stores); the L2 way is the caller's to clear.
func (p *Presence) Clear(block uint64) {
	p.bits[block] = 0
	p.owner[block] = -1
}

// ForEachHolder calls fn for every core with a copy of block, except skip.
func (p *Presence) ForEachHolder(block uint64, skip int, fn func(cpu int)) {
	bits := p.bits[block]
	for bits != 0 {
		n := trailingZeros(uint64(bits))
		bits &^= 1 << uint(n)
		if n != skip {
			fn(n)
		}
	}
}

func trailingZeros(v uint64) int { return bits.TrailingZeros64(v) }
