package store

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/trace/sinktest"
)

// benchSizes are the manifest sizes the store layer benchmarks price:
// the query benchmark's store, six times that, and a store large enough
// that the manifest dominates a commit.
var benchSizes = []int{18, 108, 500}

// writeSmallArchive commits a 64-record, 4-CPU archive through a Writer.
func writeSmallArchive(tb testing.TB, s *Store) Entry {
	tb.Helper()
	const n, cpus = 64, 4
	w, err := s.NewWriter(Meta{App: "oltp", Machine: "multi-chip", Scale: "small", Seed: 7, Label: "bench"}, cpus)
	if err != nil {
		tb.Fatal(err)
	}
	w.AppendBatch(sinktest.Misses(n, cpus))
	w.Finish(sinktest.Header(n, cpus))
	e, err := w.Commit()
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// benchStore builds a store of n healthy entries: one archive written
// by a Writer, its bytes copied under n-1 further IDs, and all of them
// indexed by one manifest commit.
func benchStore(b *testing.B, n int) *Store {
	b.Helper()
	dir := b.TempDir()
	s, _, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	e := writeSmallArchive(b, s)
	raw, err := os.ReadFile(filepath.Join(dir, e.File()))
	if err != nil {
		b.Fatal(err)
	}
	more := make([]Entry, 0, n-1)
	for i := 1; i < n; i++ {
		c := e
		c.ID = fmt.Sprintf("%s-%04d", e.ID, i)
		c.Start = e.Start.Add(time.Duration(i) * time.Millisecond)
		c.End = c.Start.Add(time.Second)
		if err := os.WriteFile(filepath.Join(dir, c.File()), raw, 0o644); err != nil {
			b.Fatal(err)
		}
		more = append(more, c)
	}
	if err := s.withLock(func() error {
		return s.commitManifest(func(es []Entry) []Entry { return append(es, more...) })
	}); err != nil {
		b.Fatal(err)
	}
	if got := s.Archives(); got != n {
		b.Fatalf("bench store holds %d archives, want %d", got, n)
	}
	return s
}

// BenchmarkStoreOpen prices store.Open — one manifest read, one decode
// and one stat per entry — at each manifest size; ns/entry divides by
// the entry count.
func BenchmarkStoreOpen(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			dir := benchStore(b, n).Dir()
			b.ReportAllocs()
			for b.Loop() {
				s, bad, err := Open(dir)
				if err != nil || len(bad) != 0 || s.Archives() != n {
					b.Fatalf("Open: %v, %d damaged", err, len(bad))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/entry")
		})
	}
}

// BenchmarkStoreCommit prices Writer.Commit of a small archive into a
// store of n entries: publishing the archive, then the locked manifest
// re-read, merge and rewrite, fsyncs included. Between iterations the
// manifest is put back to n entries, untimed, so every commit sees the
// same store.
func BenchmarkStoreCommit(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			s := benchStore(b, n)
			path := filepath.Join(s.Dir(), manifestName)
			base, err := os.ReadFile(path)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				b.StopTimer()
				w, err := s.NewWriter(Meta{App: "oltp", Label: "commit"}, 4)
				if err != nil {
					b.Fatal(err)
				}
				w.AppendBatch(sinktest.Misses(64, 4))
				w.Finish(sinktest.Header(64, 4))
				b.StartTimer()
				e, err := w.Commit()
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				if err := os.WriteFile(path, base, 0o644); err != nil {
					b.Fatal(err)
				}
				os.Remove(filepath.Join(s.Dir(), e.File()))
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/entry")
		})
	}
}
