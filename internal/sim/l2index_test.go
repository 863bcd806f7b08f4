package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/trace"
)

// checkL2Index checks the invariant every L2 access in the simulators rests
// on: the coherence state records exactly which blocks each L2 holds, and
// at which way. For the DSM, a node's sharer bit for a block is set exactly
// when its L2 holds the block, and the directory's way names that line; for
// the CMP, the presence vector's L2 way is recorded exactly when the shared
// L2 holds the block, and names that line. It walks every L2 line (each
// resident block must be recorded at its own way) and every block (each
// recorded way must hold the block), and reports the first disagreements.
func checkL2Index(m Machine) error {
	var errs []string
	report := func(format string, args ...any) {
		if len(errs) < 8 {
			errs = append(errs, fmt.Sprintf(format, args...))
		}
	}
	// lines calls fn for every valid line of l2 with the block it holds.
	lines := func(l2 *cache.Cache, fn func(i int, b uint64)) {
		for i := 0; i < l2.Config().Sets()*l2.Config().Ways; i++ {
			if l2.State(i) != cache.Invalid {
				fn(i, l2.Block(i))
			}
		}
	}
	// holds reports whether line i of l2 is valid and holds b.
	holds := func(l2 *cache.Cache, i int, b uint64) bool {
		return l2.State(i) != cache.Invalid && l2.Block(i) == b
	}
	switch m := m.(type) {
	case *DSM:
		for node := range m.nodes {
			l2 := &m.nodes[node].l2
			lines(l2, func(i int, b uint64) {
				if way, ok := m.dir.Way(b, node); !ok {
					report("node %d: L2 line %d holds block %#x but the node is not a sharer", node, i, b)
				} else if way != l2.Way(i) {
					report("node %d: block %#x sits in L2 way %d, the directory says %d", node, b, l2.Way(i), way)
				}
			})
		}
		for b := uint64(0); b < uint64(len(m.cls.state)); b++ {
			for sh := m.dir.Sharers(b); sh != 0; sh &= sh - 1 {
				node := bits.TrailingZeros16(sh)
				way, _ := m.dir.Way(b, node)
				l2 := &m.nodes[node].l2
				if i := l2.Line(b, way); !holds(l2, i, b) {
					report("node %d: the directory puts block %#x in L2 way %d, which holds %#x (state %v)",
						node, b, way, l2.Block(i), l2.State(i))
				}
			}
		}
	case *CMP:
		lines(m.l2, func(i int, b uint64) {
			if w := m.pres.L2Way(b); w != m.l2.Way(i) {
				report("L2 line %d (way %d) holds block %#x, presence records way %d", i, m.l2.Way(i), b, w)
			}
		})
		for b := uint64(0); b < uint64(len(m.cls.state)); b++ {
			if w := m.pres.L2Way(b); w >= 0 {
				if i := m.l2.Line(b, w); !holds(m.l2, i, b) {
					report("presence puts block %#x in L2 way %d, which holds %#x (state %v)",
						b, w, m.l2.Block(i), m.l2.State(i))
				}
			}
		}
	default:
		return fmt.Errorf("checkL2Index: unsupported machine %T", m)
	}
	if errs != nil {
		return fmt.Errorf("L2 index disagrees with the caches:\n  %s", strings.Join(errs, "\n  "))
	}
	return nil
}

// smallCaches is the Small scale's geometry (internal/workload): 8 KB
// 2-way L1s and a 1 MB 16-way L2, the wide-set layout.
func smallCaches() CacheParams {
	return CacheParams{L1Bytes: 8 << 10, L1Ways: 2, L2Bytes: 1 << 20, L2Ways: 16}
}

// access is one simulated memory operation.
type access struct {
	op    uint8 // 'r'ead, 'f'etch, 'w'rite, 'n'on-allocating store, 'd'ma
	cpu   uint8
	block uint64
	size  uint64 // DMA bytes
}

// apply performs a on m.
func (a access) apply(m Machine) {
	cpu, ad := int(a.cpu), addr(a.block)
	switch a.op {
	case 'r':
		m.Read(cpu, ad, 0)
	case 'f':
		m.Fetch(cpu, ad, 0)
	case 'w':
		m.Write(cpu, ad, 0)
	case 'n':
		m.NonAllocStore(cpu, ad, 0)
	case 'd':
		m.DMAWrite(ad, a.size)
	}
}

// accessMix draws a seeded mix of reads, fetches, writes, non-allocating
// stores and DMA writes by ncpu CPUs: half go to a hot, heavily shared
// region, the rest to a block space four times a 1 MB L2, so L2 sets fill,
// evict and get invalidated.
func accessMix(ncpu int, seed int64, steps int) []access {
	const hot, space = 1 << 10, 1 << 16
	rng := rand.New(rand.NewSource(seed))
	out := make([]access, steps)
	for i := range out {
		a := access{op: 'r', cpu: uint8(rng.Intn(ncpu)), block: uint64(rng.Intn(space))}
		if rng.Intn(2) == 0 {
			a.block = uint64(rng.Intn(hot))
		}
		switch op := rng.Intn(100); {
		case op < 15:
			a.op = 'w'
		case op < 17:
			a.op = 'n'
		case op < 18:
			// Eight-block aligned, so the write stays inside the space.
			a.op, a.size, a.block = 'd', 64*uint64(1+rng.Intn(8)), a.block&^7
		case op < 40:
			a.op = 'f'
		}
		out[i] = a
	}
	return out
}

// TestL2IndexSmallGeometry checks the L2 index on the wide (16-way) L2 of
// the Small geometry, for both machines, under a random access mix that
// fills, evicts and invalidates L2 lines.
func TestL2IndexSmallGeometry(t *testing.T) {
	const blocks, steps, every = 1 << 16, 300000, 1000
	for name, m := range map[string]Machine{
		"dsm": NewDSM(4, smallCaches(), blocks),
		"cmp": NewCMP(4, smallCaches(), blocks),
	} {
		t.Run(name, func(t *testing.T) {
			for step, a := range accessMix(m.CPUs(), 53, steps) {
				a.apply(m)
				if (step+1)%every != 0 {
					continue
				}
				if err := checkL2Index(m); err != nil {
					t.Fatalf("after step %d: %v", step, err)
				}
			}
			evictions := uint64(0)
			switch m := m.(type) {
			case *DSM:
				for i := range m.nodes {
					evictions += m.nodes[i].l2.Evictions
				}
			case *CMP:
				evictions = m.l2.Evictions
			}
			if evictions == 0 {
				t.Error("the access mix evicted no L2 line; it checks too little")
			}
		})
	}
}

// BenchmarkMachineAccess replays a seeded access mix on the Small geometry
// and reports the cost of one simulated access. Miss records are
// discarded, so the figure is the machine step alone.
func BenchmarkMachineAccess(b *testing.B) {
	const blocks, steps = 1 << 16, 200000
	for _, tc := range []struct {
		name string
		ncpu int
		new  func(ncpu int, p CacheParams, nblocks uint64) Machine
	}{
		{"dsm", 16, func(n int, p CacheParams, nb uint64) Machine { return NewDSM(n, p, nb) }},
		{"cmp", 4, func(n int, p CacheParams, nb uint64) Machine { return NewCMP(n, p, nb) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			mix := accessMix(tc.ncpu, 59, steps)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := tc.new(tc.ncpu, smallCaches(), blocks)
				m.SetSinks(trace.Discard{}, trace.Discard{})
				b.StartTimer()
				for _, a := range mix {
					a.apply(m)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps), "ns/access")
		})
	}
}
