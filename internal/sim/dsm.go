package sim

import (
	"math/bits"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/trace"
)

// DSM models the multi-chip distributed-shared-memory system: every node
// has private split L1s and a private inclusive L2; an MSI full-map
// directory keeps the L2s coherent. Every read that misses the node's
// hierarchy is an off-chip miss (whether satisfied by memory or a remote
// node) and is recorded in the off-chip trace.
//
// The hot paths are single-pass: Read/Fetch resolve the (by far most
// common) L1-hit case with one fused probe+touch and fall into the shared
// miss path otherwise; each cache level's set is scanned at most once per
// protocol step; sharer iteration runs as inline bitmask loops. No L2 set
// is ever searched: a node's sharer bit is set exactly while its L2 holds
// the block, and the directory records the way, so every L2 access goes
// straight to its line. Per-node state lives in one contiguous nodes slice
// so an access indexes a single struct instead of three parallel pointer
// slices.
type DSM struct {
	ncpu    int
	nodes   []dsmNode
	dir     *coherence.Directory
	cls     *Classifier
	off     trace.Trace
	offSink trace.Sink // destination of off-chip records; defaults to &off
	instr   uint64
}

// dsmNode is one single-core node's private hierarchy.
type dsmNode struct {
	l1i, l1d, l2 cache.Cache
}

// NewDSM builds a multi-chip system of ncpu single-core nodes over a
// compact address space of nblocks blocks.
func NewDSM(ncpu int, p CacheParams, nblocks uint64) *DSM {
	m := &DSM{
		ncpu:  ncpu,
		nodes: make([]dsmNode, ncpu),
		dir:   coherence.NewDirectory(nblocks),
		cls:   NewClassifier(ncpu, nblocks),
	}
	for i := range m.nodes {
		m.nodes[i].l1i = *cache.New(cache.Config{Bytes: p.L1Bytes, Ways: p.L1Ways, BlockBits: 6})
		m.nodes[i].l1d = *cache.New(cache.Config{Bytes: p.L1Bytes, Ways: p.L1Ways, BlockBits: 6})
		m.nodes[i].l2 = *cache.New(cache.Config{Bytes: p.L2Bytes, Ways: p.L2Ways, BlockBits: 6})
	}
	m.off.CPUs = ncpu
	m.offSink = &m.off
	return m
}

// CPUs implements Machine.
func (m *DSM) CPUs() int { return m.ncpu }

// SetSinks implements Machine; the DSM has no intra-chip stream, so intra
// is ignored.
func (m *DSM) SetSinks(off, intra trace.Sink) {
	if off == nil {
		off = &m.off
	}
	m.offSink = off
	_ = intra
}

// OffChip implements Machine. Instruction counts accumulate in a scalar on
// Tick and are folded into the trace here, keeping the per-step path free
// of trace-header stores.
func (m *DSM) OffChip() *trace.Trace {
	m.off.Instructions = m.instr
	return &m.off
}

// IntraChip implements Machine; the DSM has no shared chip.
func (m *DSM) IntraChip() *trace.Trace { return nil }

// Tick implements Machine.
func (m *DSM) Tick(cpu int, n uint64) { m.instr += n }

// Classifier exposes the classifier (tests).
func (m *DSM) Classifier() *Classifier { return m.cls }

// fillL1 inserts b into cpu's L1 (the caller's probe missed), spilling any
// dirty victim's state into the (inclusive) L2.
func (m *DSM) fillL1(n *dsmNode, cpu int, l1 *cache.Cache, b uint64, st cache.State) {
	victim, evicted, _ := l1.Fill(b, st)
	if evicted && victim.State.Dirty() {
		// Inclusive hierarchy: the victim is present in the L2.
		n.l2.SetState(m.l2Line(n, cpu, victim.Block), cache.Modified)
	}
}

// l2Line returns the line of cpu's L2 that holds b; cpu must be a sharer.
func (m *DSM) l2Line(n *dsmNode, cpu int, b uint64) int {
	way, _ := m.dir.Way(b, cpu)
	return n.l2.Line(b, way)
}

// evictL2 handles an L2 victim: back-invalidate the L1s (inclusion) and
// update the directory (a dirty victim is written back to memory).
func (m *DSM) evictL2(n *dsmNode, cpu int, v cache.Victim) {
	n.l1i.Invalidate(v.Block)
	n.l1d.Invalidate(v.Block)
	m.dir.RemoveSharer(v.Block, cpu)
}

// readMiss is the shared L1-miss tail of Read and Fetch.
func (m *DSM) readMiss(n *dsmNode, l1 *cache.Cache, cpu int, b uint64, fn trace.FuncID) {
	if way, held := m.dir.Way(b, cpu); held {
		// Node-level hit: not an off-chip miss, not traced (the multi-chip
		// context traces off-chip misses only). A resident line implies
		// this node already observed the current write version (any newer
		// write or DMA would have invalidated the copy), so the classifier
		// needs no NoteRead.
		n.l2.Touch(n.l2.Line(b, way))
		m.fillL1(n, cpu, l1, b, cache.Shared)
		return
	}
	// Off-chip read miss.
	owner := m.dir.Owner(b)
	remoteDirty := owner >= 0 && owner != cpu
	class := m.cls.ClassifyRead(cpu, b, remoteDirty, false)
	m.offSink.Append(trace.Miss{
		Addr:     b << 6,
		Func:     fn,
		CPU:      uint8(cpu),
		Class:    class,
		Supplier: trace.SupplierMemory,
	})
	if remoteDirty {
		// Remote owner downgrades M -> S and writes back.
		ro := &m.nodes[owner]
		ro.l2.SetState(m.l2Line(ro, owner, b), cache.Shared)
		ro.l1d.FindSetState(b, cache.Shared)
		m.dir.Downgrade(b)
	}
	v, ev, line := n.l2.Fill(b, cache.Shared)
	if ev {
		m.evictL2(n, cpu, v)
	}
	m.dir.AddSharer(b, cpu, n.l2.Way(line))
	// The L2 eviction may have back-invalidated a line of this very L1
	// set, so the fill must pick its slot from a fresh scan.
	m.fillL1(n, cpu, l1, b, cache.Shared)
	m.cls.NoteRead(cpu, b)
}

// Read implements Machine. The L1-hit fast path (a resident line implies
// the classifier already holds the current version, see readMiss) returns
// after one fused probe+touch.
func (m *DSM) Read(cpu int, addr uint64, fn trace.FuncID) {
	b := blockOf(addr)
	n := &m.nodes[cpu]
	if n.l1d.ReadHit(b) {
		return
	}
	m.readMiss(n, &n.l1d, cpu, b, fn)
}

// Fetch implements Machine.
func (m *DSM) Fetch(cpu int, addr uint64, fn trace.FuncID) {
	b := blockOf(addr)
	n := &m.nodes[cpu]
	if n.l1i.ReadHit(b) {
		return
	}
	m.readMiss(n, &n.l1i, cpu, b, fn)
}

// Write implements Machine. Write misses are simulated for their coherence
// side effects but, per the paper's methodology, only read misses are
// traced.
func (m *DSM) Write(cpu int, addr uint64, fn trace.FuncID) {
	b := blockOf(addr)
	n := &m.nodes[cpu]
	li, l1hit, mod := n.l1d.WriteHit(b)
	if mod {
		m.cls.NoteWrite(cpu, b)
		return
	}
	// Gain exclusivity: invalidate all remote copies. Only remote nodes
	// are touched, so the local L1 probe stays valid across the sweep.
	m.invalidateRemote(b, cpu)
	way, held := m.dir.Way(b, cpu)
	if held {
		i := n.l2.Line(b, way)
		n.l2.SetState(i, cache.Modified)
		n.l2.Touch(i)
	} else {
		v, ev, i := n.l2.Fill(b, cache.Modified)
		if ev {
			m.evictL2(n, cpu, v)
		}
		way = n.l2.Way(i)
	}
	m.dir.SetOwner(b, cpu, way)
	if l1hit {
		// The L2 eviction cannot have displaced b's own L1 line (the
		// victim is a different block), so the probed line still holds b.
		n.l1d.SetState(li, cache.Modified)
		n.l1d.Touch(li)
	} else {
		m.fillL1(n, cpu, &n.l1d, b, cache.Modified)
	}
	m.cls.NoteWrite(cpu, b)
}

// invalidateRemote removes every cached copy of b outside node keep
// (keep == -1 invalidates everywhere), walking the directory's sharer
// bitmap inline.
func (m *DSM) invalidateRemote(b uint64, keep int) {
	sharers := m.dir.Sharers(b)
	if keep >= 0 {
		sharers &^= 1 << uint(keep)
	}
	for sharers != 0 {
		node := bits.TrailingZeros16(sharers)
		sharers &^= 1 << uint(node)
		n := &m.nodes[node]
		// The sharer set is exactly the set of nodes whose L2 holds b,
		// and inclusion puts any L1 copy under an L2 copy.
		n.l2.SetState(m.l2Line(n, node, b), cache.Invalid)
		n.l1i.Invalidate(b)
		n.l1d.Invalidate(b)
		m.dir.RemoveSharer(b, node)
	}
}

// NonAllocStore implements Machine: the store invalidates all cached
// copies (including the writer's own) without allocating.
func (m *DSM) NonAllocStore(cpu int, addr uint64, fn trace.FuncID) {
	b := blockOf(addr)
	m.invalidateRemote(b, -1)
	m.dir.Clear(b)
	m.cls.NoteCopyout(b)
	_ = fn
}

// DMAWrite implements Machine. A zero-size write touches nothing (the
// block arithmetic would otherwise wrap).
func (m *DSM) DMAWrite(addr uint64, size uint64) {
	if size == 0 {
		return
	}
	for b := blockOf(addr); b <= blockOf(addr+size-1); b++ {
		m.invalidateRemote(b, -1)
		m.dir.Clear(b)
		m.cls.NoteDMA(b)
	}
}
