package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchGeometries are the simulators' two layouts at the Small scale: the
// 8 KB 2-way L1 and the 1 MB 16-way L2.
var benchGeometries = []Config{
	{Bytes: 8 << 10, Ways: 2, BlockBits: 6},
	{Bytes: 1 << 20, Ways: 16, BlockBits: 6},
}

// benchBatch is the number of accesses one benchmark op replays.
const benchBatch = 1 << 14

// BenchmarkCacheReadHit times ReadHit on a full cache: every access hits a
// random resident block and moves it to MRU.
func BenchmarkCacheReadHit(b *testing.B) {
	for _, cfg := range benchGeometries {
		b.Run(fmt.Sprintf("%dway", cfg.Ways), func(b *testing.B) {
			c := New(cfg)
			lines := cfg.Sets() * cfg.Ways
			for blk := 0; blk < lines; blk++ {
				c.Fill(uint64(blk), Shared)
			}
			rng := rand.New(rand.NewSource(1))
			seq := make([]uint64, benchBatch)
			for i := range seq {
				seq[i] = uint64(rng.Intn(lines))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, blk := range seq {
					if !c.ReadHit(blk) {
						b.Fatalf("block %d missed", blk)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchBatch), "ns/access")
		})
	}
}

// BenchmarkCacheFill times Fill on a full cache: a cyclic sweep over twice
// the capacity, so under LRU every fill misses and evicts.
func BenchmarkCacheFill(b *testing.B) {
	for _, cfg := range benchGeometries {
		b.Run(fmt.Sprintf("%dway", cfg.Ways), func(b *testing.B) {
			c := New(cfg)
			span := uint64(2 * cfg.Sets() * cfg.Ways)
			next := uint64(0)
			for ; next < span/2; next++ {
				c.Fill(next, Shared)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := 0; k < benchBatch; k++ {
					if _, ev, _ := c.Fill(next%span, Shared); !ev {
						b.Fatal("fill into a full cache evicted nothing")
					}
					next++
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchBatch), "ns/access")
		})
	}
}
