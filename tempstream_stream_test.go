package tempstream

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/prefetch"
)

// streamPfCfg exercises every bounded structure of the prefetch engine in
// the equivalence sweep.
var streamPfCfg = prefetch.Config{Depth: 8, HistoryLen: 20000, BufferBlocks: 2048}

// TestStreamingMatchesBatchAllApps is the streaming equivalence guard: a
// plain Runner.Run (nothing materialized) must reproduce the KeepTraces
// batch run field for field — per-context headers, every per-miss
// analysis field, the distribution summaries, and the prefetch counters
// (against prefetch.Evaluate over the batch trace) — for every
// application. The batch side reuses the shared experiment cache, so the
// streaming runs are the only extra simulations.
func TestStreamingMatchesBatchAllApps(t *testing.T) {
	apps := Apps()
	if testing.Short() {
		apps = apps[:1] // one app keeps -short sweeps fast; CI race runs all
	}
	for _, app := range apps {
		batch := collect(t, app)
		stream := runExp(t, NewRunner(), Request{
			App: app, Scale: Small, Seed: 1, TargetMisses: 35000, Prefetch: &streamPfCfg,
		})
		for _, ctx := range Contexts() {
			b, s := batch.Context(ctx), stream.Context(ctx)
			if s.Trace != nil {
				t.Errorf("%v %v: streaming result materialized a trace", app, ctx)
			}
			if want := headerOf(b.Trace); s.Header != want {
				t.Errorf("%v %v: header %+v, want %+v", app, ctx, s.Header, want)
			}
			ba, sa := b.Analysis, s.Analysis
			if len(sa.Misses) != len(ba.Misses) {
				t.Fatalf("%v %v: window %d vs %d misses", app, ctx, len(sa.Misses), len(ba.Misses))
			}
			if !reflect.DeepEqual(sa.Misses, ba.Misses) {
				t.Errorf("%v %v: analysis windows differ", app, ctx)
			}
			if !reflect.DeepEqual(sa.State, ba.State) {
				t.Errorf("%v %v: per-miss stream states differ", app, ctx)
			}
			if !reflect.DeepEqual(sa.Strided, ba.Strided) {
				t.Errorf("%v %v: stride flags differ", app, ctx)
			}
			if !reflect.DeepEqual(sa.Instances, ba.Instances) {
				t.Errorf("%v %v: stream instances differ (%d vs %d)",
					app, ctx, len(sa.Instances), len(ba.Instances))
			}
			if !reflect.DeepEqual(sa.ReuseDist.Buckets(), ba.ReuseDist.Buckets()) {
				t.Errorf("%v %v: reuse-distance histograms differ", app, ctx)
			}
			if sa.MedianStreamLength() != ba.MedianStreamLength() {
				t.Errorf("%v %v: median stream length %v vs %v",
					app, ctx, sa.MedianStreamLength(), ba.MedianStreamLength())
			}
			if sa.GrammarRules() != ba.GrammarRules() {
				t.Errorf("%v %v: grammar rules %d vs %d", app, ctx, sa.GrammarRules(), ba.GrammarRules())
			}
			if s.Prefetch == nil {
				t.Fatalf("%v %v: no prefetch counters", app, ctx)
			}
			if want := prefetch.Evaluate(b.Trace, streamPfCfg); *s.Prefetch != want {
				t.Errorf("%v %v: prefetch counters %+v, want %+v", app, ctx, *s.Prefetch, want)
			}
		}
	}
}

// TestStreamingKeepTraces checks the KeepTraces escape hatch: the
// materialized streaming traces must be byte-identical to the batch ones.
func TestStreamingKeepTraces(t *testing.T) {
	batch := collect(t, Apache)
	stream := runExp(t, NewRunner(), Request{App: Apache, Scale: Small, Seed: 1, TargetMisses: 35000, KeepTraces: true})
	for _, ctx := range Contexts() {
		b, s := batch.Context(ctx), stream.Context(ctx)
		if s.Trace == nil {
			t.Fatalf("%v: KeepTraces produced no trace", ctx)
		}
		if !reflect.DeepEqual(s.Trace.Misses, b.Trace.Misses) {
			t.Errorf("%v: materialized streaming trace differs from batch", ctx)
		}
		if s.Trace.Instructions != b.Trace.Instructions || s.Trace.CPUs != b.Trace.CPUs {
			t.Errorf("%v: trace header %d/%d vs %d/%d", ctx,
				s.Trace.Instructions, s.Trace.CPUs, b.Trace.Instructions, b.Trace.CPUs)
		}
	}
}

// streamAllocBytes measures the heap bytes one streaming collection
// allocates end to end.
func streamAllocBytes(target int, analysis core.Options) uint64 {
	r := NewRunner()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r.Run(context.Background(), Request{App: OLTP, Scale: Small, Seed: 9, TargetMisses: target, Analysis: analysis})
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestStreamingBoundedMemory pins the O(window) memory claim at the
// pipeline level: with a fixed analysis window, quadrupling the miss
// target must not proportionally grow the bytes a streaming collection
// allocates — the extra misses stream through gates and a full analyzer
// window without materializing anywhere.
func TestStreamingBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping memory-growth sweep in short mode")
	}
	opts := core.Options{MaxMisses: 4000}
	streamAllocBytes(6000, opts) // warm pools and lazily-grown storage
	base := streamAllocBytes(6000, opts)
	big := streamAllocBytes(4*6000, opts)
	t.Logf("allocated bytes: base(6k)=%d big(24k)=%d ratio=%.2f", base, big, float64(big)/float64(base))
	// A materializing pipeline would scale these bytes with the target
	// (4x the measurement plus 40x intra-chip records). Allow generous
	// headroom for fixed per-run setup noise, but reject linear growth.
	if big > 2*base {
		t.Errorf("streaming allocations grew with trace length: %d -> %d bytes (>2x) for a 4x target", base, big)
	}
}
