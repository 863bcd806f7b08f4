package store_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	tempstream "repro"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/trace/sinktest"
	"repro/internal/wire"
)

// testFuncs is a 37-entry symbol table (sinktest drives Func = i%37)
// spread over every category, so category filters keep a real share.
func testFuncs() []wire.FuncMeta {
	funcs := make([]wire.FuncMeta, 37)
	for i := range funcs {
		funcs[i] = wire.FuncMeta{Name: fmt.Sprintf("fn%02d", i), Category: trace.Category(i % int(trace.NumCategories))}
	}
	return funcs
}

// queryShapes is one query of each shape tsquery analyze runs against
// archive id of n records.
func queryShapes(id string, n int64) map[string]store.Query {
	cpu := 1
	class := trace.Coherence
	cat := trace.Category(3)
	return map[string]store.Query{
		"whole":    {ID: id},
		"window":   {ID: id, From: n / 4, To: 3 * n / 4},
		"cpu":      {ID: id, CPU: &cpu},
		"class":    {ID: id, Class: &class},
		"category": {ID: id, Category: &cat},
		"manifest": {Apps: []string{"oltp"}},
	}
}

// analyzeOK runs q and fails the test on any archive error.
func analyzeOK(t testing.TB, s *store.Store, q store.Query) []store.Result {
	t.Helper()
	res, errs := s.Analyze(q, tempstreamOptions())
	if len(errs) != 0 {
		t.Fatalf("Analyze(%+v): %v", q, errs)
	}
	return res
}

// TestAnalyzeConcurrentMatchesSerial drives every query shape from
// several goroutines at once against one Store — sharing the pooled
// sessions, decoders and filter buffers — and requires each answer to
// equal a serial run on a fresh Store. Run under -race in CI.
func TestAnalyzeConcurrentMatchesSerial(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	var ids []string
	for i, shape := range []struct{ n, cpus int }{{9000, 4}, {3000, 2}, {12000, 16}} {
		e := writeArchive(t, s, store.Meta{App: "oltp", Seed: int64(i)}, sinktest.Misses(shape.n, shape.cpus),
			sinktest.Header(shape.n, shape.cpus), testFuncs())
		ids = append(ids, e.ID)
	}
	type job struct {
		name string
		q    store.Query
	}
	var jobs []job
	for _, id := range ids {
		e := s.Select(store.Query{ID: id})[0]
		for name, q := range queryShapes(id, e.Records) {
			jobs = append(jobs, job{id + "/" + name, q})
		}
	}

	fresh := openStore(t, dir)
	want := make([][]store.Result, len(jobs))
	for i, j := range jobs {
		want[i] = analyzeOK(t, fresh, j.q)
	}

	const workers, rounds = 4, 2
	var wg sync.WaitGroup
	errc := make(chan error, workers*rounds*len(jobs))
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				for k := range jobs {
					i := (k + w*7 + r) % len(jobs) // each worker walks the jobs in its own order
					got, errs := s.Analyze(jobs[i].q, tempstreamOptions())
					if len(errs) != 0 {
						errc <- fmt.Errorf("%s: %v", jobs[i].name, errs)
					} else if !reflect.DeepEqual(got, want[i]) {
						errc <- fmt.Errorf("%s: concurrent result differs from the serial run", jobs[i].name)
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if n := tempstream.AnalyzersInFlight(); n != 0 {
		t.Errorf("%d analyzers still checked out", n)
	}
}

// TestCategoryQueryCorruptArchive damages an archive two ways — a
// bit-flipped data frame and a truncated trailer — and requires a
// category query, whose first pass only scans for the trailer, to still
// end in a typed *CorruptError without stranding a pooled analyzer.
func TestCategoryQueryCorruptArchive(t *testing.T) {
	const n, cpus = 20000, 4
	cat := trace.Category(3)
	for _, tc := range []struct {
		name   string
		damage func(raw []byte) []byte
		kind   error
	}{
		{"bitflip-data-frame", func(raw []byte) []byte { raw[len(raw)/2] ^= 0x40; return raw }, wire.ErrCorrupt},
		{"truncated-trailer", func(raw []byte) []byte { return raw[:len(raw)-3] }, wire.ErrTruncated},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := openStore(t, dir)
			e := writeArchive(t, s, store.Meta{App: "oltp"}, sinktest.Misses(n, cpus), sinktest.Header(n, cpus), testFuncs())
			path := filepath.Join(dir, e.File())
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.damage(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			// The Store opened before the damage still lists the entry,
			// so the query reaches the damaged bytes.
			res, errs := s.Analyze(store.Query{ID: e.ID, Category: &cat}, tempstreamOptions())
			if len(res) != 0 || len(errs) != 1 {
				t.Fatalf("Analyze = %d results, errs %v; want one error", len(res), errs)
			}
			var ce *store.CorruptError
			if !errors.As(errs[0], &ce) || ce.ID != e.ID || !errors.Is(errs[0], tc.kind) {
				t.Fatalf("Analyze err = %v, want *CorruptError for %s wrapping %v", errs[0], e.ID, tc.kind)
			}
			if n := tempstream.AnalyzersInFlight(); n != 0 {
				t.Errorf("%d analyzers still checked out", n)
			}
		})
	}
}

// analyzeFixture commits one n-record archive with a symbol table and
// returns the store and its entry.
func analyzeFixture(t testing.TB, n, cpus int) (*store.Store, store.Entry) {
	dir := t.TempDir()
	s, _, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.NewWriter(store.Meta{App: "oltp", Machine: "multi-chip", Scale: "small"}, cpus)
	if err != nil {
		t.Fatal(err)
	}
	w.AppendBatch(sinktest.Misses(n, cpus))
	w.Finish(sinktest.Header(n, cpus))
	w.SetSymbols(testFuncs())
	e, err := w.Commit()
	if err != nil {
		t.Fatal(err)
	}
	return s, e
}

// TestAnalyzeSteadyStateAllocs guards the pooled read path: once the
// session, decoder and filter buffers are warm, a whole-archive query of
// a 16000-record archive must allocate well under the 512 KiB a fresh
// Session chunk buffer alone would cost.
func TestAnalyzeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random")
	}
	s, e := analyzeFixture(t, 16000, 16)
	q := store.Query{ID: e.ID}
	analyzeOK(t, s, q)
	analyzeOK(t, s, q)
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		analyzeOK(t, s, q)
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp >= 512<<10 {
		t.Errorf("steady-state whole-archive Analyze allocates %d B/op, want < %d", perOp, 512<<10)
	} else {
		t.Logf("steady-state whole-archive Analyze: %d B/op", perOp)
	}
}

// BenchmarkStoreAnalyze prices the archive query layer — store.Analyze
// over one committed archive, decode plus Session — for the whole
// stream, a half-stream window and a category filter (trailer scan plus
// one decoding pass). ns/record divides by the archive's record count.
func BenchmarkStoreAnalyze(b *testing.B) {
	const n, cpus = 16000, 16
	s, e := analyzeFixture(b, n, cpus)
	shapes := queryShapes(e.ID, n)
	for _, name := range []string{"whole", "window", "category"} {
		q := shapes[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				analyzeOK(b, s, q)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/record")
		})
	}
}
