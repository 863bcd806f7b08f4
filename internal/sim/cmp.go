package sim

import (
	"math/bits"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/trace"
)

// CMP models the single-chip multiprocessor: private split L1s per core
// and one shared L2, non-inclusive (victim-style: blocks move L2 -> L1 on
// hits and L1 -> L2 on evictions), with a MOSI intra-chip protocol closely
// following Piranha. Two traces are collected:
//
//   - off-chip: L1 misses that no on-chip cache can satisfy (Figure 1
//     left, "single-chip"; Figure 2/3/4 "single-chip" context);
//   - intra-chip: L1 misses satisfied by the shared L2 or a peer L1
//     (Figure 1 right; the "intra-chip" analysis context).
//
// Following the paper, an intra-chip miss's class (Coherence vs
// Replacement) is its cause, while its Supplier records which level
// provided the data: coherence misses may be satisfied by a peer L1 or by
// the L2 (after the owner's dirty line was evicted into it).
//
// Like the DSM, the hot paths are single-pass: Read/Fetch resolve the
// L1-hit case with one fused probe+touch, each L1 set is scanned at most
// once per protocol step, and holder iteration runs as inline bitmask
// loops over the presence vector. The L2 is never searched: the presence
// vector records the way of every block the L2 holds, exactly, and is
// updated at each of the four places the L2's contents change (the L1
// victim spill, the hit move-up, Write and invalidateAll).
type CMP struct {
	ncpu      int
	l1i       []cache.Cache
	l1d       []cache.Cache
	l2        *cache.Cache
	pres      *coherence.Presence
	cls       *Classifier
	off       trace.Trace
	intra     trace.Trace
	offSink   trace.Sink // destination of off-chip records; defaults to &off
	intraSink trace.Sink // destination of intra-chip records; defaults to &intra
	instr     uint64
}

// NewCMP builds a single-chip system with ncpu cores over a compact
// address space of nblocks blocks.
func NewCMP(ncpu int, p CacheParams, nblocks uint64) *CMP {
	m := &CMP{
		ncpu: ncpu,
		l2:   cache.New(cache.Config{Bytes: p.L2Bytes, Ways: p.L2Ways, BlockBits: 6}),
		pres: coherence.NewPresence(nblocks),
		cls:  NewClassifier(ncpu, nblocks),
	}
	for i := 0; i < ncpu; i++ {
		m.l1i = append(m.l1i, *cache.New(cache.Config{Bytes: p.L1Bytes, Ways: p.L1Ways, BlockBits: 6}))
		m.l1d = append(m.l1d, *cache.New(cache.Config{Bytes: p.L1Bytes, Ways: p.L1Ways, BlockBits: 6}))
	}
	m.off.CPUs = ncpu
	m.intra.CPUs = ncpu
	m.offSink = &m.off
	m.intraSink = &m.intra
	return m
}

// CPUs implements Machine.
func (m *CMP) CPUs() int { return m.ncpu }

// SetSinks implements Machine.
func (m *CMP) SetSinks(off, intra trace.Sink) {
	if off == nil {
		off = &m.off
	}
	if intra == nil {
		intra = &m.intra
	}
	m.offSink = off
	m.intraSink = intra
}

// OffChip implements Machine; see DSM.OffChip for the lazy instruction
// fold.
func (m *CMP) OffChip() *trace.Trace {
	m.off.Instructions = m.instr
	return &m.off
}

// IntraChip implements Machine.
func (m *CMP) IntraChip() *trace.Trace {
	m.intra.Instructions = m.instr
	return &m.intra
}

// Tick implements Machine.
func (m *CMP) Tick(cpu int, n uint64) { m.instr += n }

// Classifier exposes the classifier (tests).
func (m *CMP) Classifier() *Classifier { return m.cls }

// fillL1 inserts b into cpu's L1 (instruction or data side); the victim
// spills into the shared L2 (victim-style non-inclusion).
func (m *CMP) fillL1(cpu int, l1 *cache.Cache, b uint64, st cache.State) {
	victim, evicted, _ := l1.Fill(b, st)
	if st.Dirty() {
		m.pres.SetOwner(b, cpu)
	} else {
		m.pres.Add(b, cpu)
	}
	if !evicted {
		return
	}
	m.pres.Remove(victim.Block, cpu)
	// Every L1 victim spills into the L2, whether or not a peer L1 still
	// holds the block. When the L2 already holds it, no line is allocated:
	// a dirty victim's state merges into that line (which becomes
	// Modified), and a clean victim leaves it as it is.
	if w := m.pres.L2Way(victim.Block); w >= 0 {
		if victim.State.Dirty() {
			m.l2.SetState(m.l2.Line(victim.Block, w), cache.Modified)
		}
		return
	}
	l2st := cache.Shared
	if victim.State.Dirty() {
		l2st = cache.Modified
	}
	// L2 victim, if any, is silently dropped: a dirty line is written back
	// to memory, and peer L1 copies survive (non-inclusive hierarchy).
	v, ev, line := m.l2.Fill(victim.Block, l2st)
	if ev {
		m.pres.SetL2Way(v.Block, -1)
	}
	m.pres.SetL2Way(victim.Block, m.l2.Way(line))
}

// dropL2 removes b from the L2, if the L2 holds it.
func (m *CMP) dropL2(b uint64) {
	if w := m.pres.L2Way(b); w >= 0 {
		m.l2.SetState(m.l2.Line(b, w), cache.Invalid)
		m.pres.SetL2Way(b, -1)
	}
}

// intraMiss records an L1 miss satisfied on chip.
func (m *CMP) intraMiss(cpu int, b uint64, fn trace.FuncID, class trace.MissClass, sup trace.Supplier) {
	m.intraSink.Append(trace.Miss{
		Addr:     b << 6,
		Func:     fn,
		CPU:      uint8(cpu),
		Class:    class,
		Supplier: sup,
	})
}

// readMiss is the shared L1-miss tail of Read and Fetch.
func (m *CMP) readMiss(l1 *cache.Cache, cpu int, b uint64, fn trace.FuncID) {
	// L1 miss: determine the cause before protocol state changes.
	owner := m.pres.Owner(b)
	remoteDirty := owner >= 0 && owner != cpu
	switch {
	case remoteDirty:
		// Peer L1 holds the block dirty: it supplies the data and keeps an
		// Owned copy (MOSI; no writeback to L2 on the forwarding path).
		class := m.cls.ClassifyRead(cpu, b, true, false)
		m.intraMiss(cpu, b, fn, class, trace.SupplierPeerL1)
		if i, hit := m.l1d[owner].Probe(b); hit && m.l1d[owner].State(i) == cache.Modified {
			m.l1d[owner].SetState(i, cache.Owned)
		}
		m.fillL1(cpu, l1, b, cache.Shared)
	default:
		if w := m.pres.L2Way(b); w >= 0 {
			// Shared L2 hit: move the block up into the L1 (victim-style).
			class := m.cls.ClassifyRead(cpu, b, false, false)
			if class == trace.Compulsory || class == trace.IOCoherence {
				// Cannot happen for on-chip blocks (DMA and copyout
				// invalidate; untouched blocks are uncached), but keep the
				// taxonomy total.
				class = trace.Replacement
			}
			m.intraMiss(cpu, b, fn, class, trace.SupplierL2)
			if i := m.l2.Line(b, w); m.l2.State(i).Dirty() {
				// The L2 holds the only dirty copy (the owner's line was
				// evicted into it). It supplies the data and keeps the
				// dirty line; the reader gets a Shared copy.
				m.l2.Touch(i)
			} else {
				// Clean line: victim-style move up into the L1.
				m.dropL2(b)
			}
			m.fillL1(cpu, l1, b, cache.Shared)
		} else if m.pres.HasPeer(b, cpu) {
			// Clean copy in a peer L1 only (non-inclusive L2 lost its
			// copy): the peer supplies.
			class := m.cls.ClassifyRead(cpu, b, false, false)
			if class == trace.Compulsory || class == trace.IOCoherence {
				class = trace.Replacement
			}
			m.intraMiss(cpu, b, fn, class, trace.SupplierPeerL1)
			m.fillL1(cpu, l1, b, cache.Shared)
		} else {
			// Off-chip miss.
			class := m.cls.ClassifyRead(cpu, b, false, true)
			m.offSink.Append(trace.Miss{
				Addr:     b << 6,
				Func:     fn,
				CPU:      uint8(cpu),
				Class:    class,
				Supplier: trace.SupplierMemory,
			})
			m.fillL1(cpu, l1, b, cache.Shared)
		}
	}
	m.cls.NoteRead(cpu, b)
}

// Read implements Machine. Unlike the DSM (whose invalidations are
// node-granular), the presence vector tracks cores, not individual L1
// arrays, so a stale copy can survive in one L1 side after the other
// side's copy was evicted and a peer wrote — the L1-hit path therefore
// keeps the seed's NoteRead.
func (m *CMP) Read(cpu int, addr uint64, fn trace.FuncID) {
	b := blockOf(addr)
	l1 := &m.l1d[cpu]
	if l1.ReadHit(b) {
		m.cls.NoteRead(cpu, b)
		return
	}
	m.readMiss(l1, cpu, b, fn)
}

// Fetch implements Machine.
func (m *CMP) Fetch(cpu int, addr uint64, fn trace.FuncID) {
	b := blockOf(addr)
	l1 := &m.l1i[cpu]
	if l1.ReadHit(b) {
		m.cls.NoteRead(cpu, b)
		return
	}
	m.readMiss(l1, cpu, b, fn)
}

// Write implements Machine. Only read misses are traced; writes drive
// protocol state (invalidations) and classification versions.
func (m *CMP) Write(cpu int, addr uint64, fn trace.FuncID) {
	b := blockOf(addr)
	l1d := &m.l1d[cpu]
	li, l1hit, mod := l1d.WriteHit(b)
	if mod {
		m.cls.NoteWrite(cpu, b)
		return
	}
	// Invalidate every other on-chip copy; the writer's own L1 line (and
	// with it the probe above) is untouched by the peer sweep.
	holders := m.pres.Holders(b) &^ (1 << uint(cpu))
	for holders != 0 {
		peer := bits.TrailingZeros8(holders)
		holders &^= 1 << uint(peer)
		m.l1i[peer].Invalidate(b)
		m.l1d[peer].Invalidate(b)
		m.pres.Remove(b, peer)
	}
	m.dropL2(b)
	if l1hit {
		l1d.SetState(li, cache.Modified)
		l1d.Touch(li)
	} else {
		m.fillL1(cpu, l1d, b, cache.Modified)
	}
	m.pres.SetOwner(b, cpu)
	m.cls.NoteWrite(cpu, b)
	_ = fn
}

// invalidateAll removes every on-chip copy of b.
func (m *CMP) invalidateAll(b uint64) {
	holders := m.pres.Holders(b)
	for holders != 0 {
		cpu := bits.TrailingZeros8(holders)
		holders &^= 1 << uint(cpu)
		m.l1i[cpu].Invalidate(b)
		m.l1d[cpu].Invalidate(b)
	}
	m.pres.Clear(b)
	m.dropL2(b)
}

// NonAllocStore implements Machine.
func (m *CMP) NonAllocStore(cpu int, addr uint64, fn trace.FuncID) {
	b := blockOf(addr)
	m.invalidateAll(b)
	m.cls.NoteCopyout(b)
	_ = fn
}

// DMAWrite implements Machine. A zero-size write touches nothing (the
// block arithmetic would otherwise wrap).
func (m *CMP) DMAWrite(addr uint64, size uint64) {
	if size == 0 {
		return
	}
	for b := blockOf(addr); b <= blockOf(addr+size-1); b++ {
		m.invalidateAll(b)
		m.cls.NoteDMA(b)
	}
}
