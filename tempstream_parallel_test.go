package tempstream

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// collectSerial is the strictly sequential reference implementation of
// the batch collection; the determinism tests compare the Runner's
// concurrent path against it field for field.
func collectSerial(app App, scale Scale, seed int64, target int) *Experiment {
	mc := workload.Run(workload.Config{
		App: app, Machine: workload.MultiChip, Scale: scale,
		Seed: seed, TargetMisses: target,
	})
	sc := workload.Run(workload.Config{
		App: app, Machine: workload.SingleChip, Scale: scale,
		Seed: seed, TargetMisses: target,
	})
	exp := &Experiment{
		App: app, Scale: scale,
		MultiChip:  mc,
		SingleChip: sc,
	}
	exp.Contexts[MultiChipCtx] = &ContextResult{
		Trace:    mc.OffChip,
		Header:   headerOf(mc.OffChip),
		Analysis: core.Analyze(mc.OffChip, core.Options{}),
		SymTab:   mc.SymTab,
	}
	exp.Contexts[SingleChipCtx] = &ContextResult{
		Trace:    sc.OffChip,
		Header:   headerOf(sc.OffChip),
		Analysis: core.Analyze(sc.OffChip, core.Options{}),
		SymTab:   sc.SymTab,
	}
	exp.Contexts[IntraChipCtx] = &ContextResult{
		Trace:    sc.IntraChip,
		Header:   headerOf(sc.IntraChip),
		Analysis: core.Analyze(sc.IntraChip, core.Options{}),
		SymTab:   sc.SymTab,
	}
	return exp
}

// compareExperiments asserts the two experiments are identical field for
// field, with targeted messages before falling back to a deep comparison.
func compareExperiments(t *testing.T, got, want *Experiment) {
	t.Helper()
	if got.App != want.App || got.Scale != want.Scale {
		t.Fatalf("identity mismatch: %v/%v vs %v/%v", got.App, got.Scale, want.App, want.Scale)
	}
	if got.MultiChip.OffChip.Len() != want.MultiChip.OffChip.Len() ||
		got.SingleChip.OffChip.Len() != want.SingleChip.OffChip.Len() {
		t.Fatalf("trace lengths differ: multi %d vs %d, single %d vs %d",
			got.MultiChip.OffChip.Len(), want.MultiChip.OffChip.Len(),
			got.SingleChip.OffChip.Len(), want.SingleChip.OffChip.Len())
	}
	for _, ctx := range Contexts() {
		g, w := got.Contexts[ctx], want.Contexts[ctx]
		if !reflect.DeepEqual(g.Trace.Misses, w.Trace.Misses) {
			t.Errorf("%v: miss traces differ", ctx)
		}
		if !reflect.DeepEqual(g.Analysis.State, w.Analysis.State) {
			t.Errorf("%v: per-miss states differ", ctx)
		}
		if !reflect.DeepEqual(g.Analysis.Strided, w.Analysis.Strided) {
			t.Errorf("%v: stride flags differ", ctx)
		}
		if !reflect.DeepEqual(g.Analysis.Instances, w.Analysis.Instances) {
			t.Errorf("%v: stream instances differ (%d vs %d)",
				ctx, len(g.Analysis.Instances), len(w.Analysis.Instances))
		}
		if !reflect.DeepEqual(g.Analysis.ReuseDist.Buckets(), w.Analysis.ReuseDist.Buckets()) {
			t.Errorf("%v: reuse-distance histograms differ", ctx)
		}
		if g.Analysis.MedianStreamLength() != w.Analysis.MedianStreamLength() {
			t.Errorf("%v: median stream length %v vs %v",
				ctx, g.Analysis.MedianStreamLength(), w.Analysis.MedianStreamLength())
		}
		if g.Analysis.GrammarRules() != w.Analysis.GrammarRules() {
			t.Errorf("%v: grammar rules %d vs %d",
				ctx, g.Analysis.GrammarRules(), w.Analysis.GrammarRules())
		}
	}
	// Everything else (MPKI, footprints, symbol tables, kernel stats, the
	// full analysis structs): deep equality over the whole experiment.
	// Stages is wall-clock tracing — explicitly outside the determinism
	// contract — so compare with it blanked.
	g, w := *got, *want
	g.Stages, w.Stages = nil, nil
	if !reflect.DeepEqual(&g, &w) {
		t.Errorf("experiments differ outside the fields checked above")
	}
}

// TestConcurrentCollectMatchesSerial is the pipeline determinism guard:
// Runner.Run with KeepTraces, whose two machine simulations run
// concurrently on the Runner's pool, must equal the strictly serial
// reference field for field at every worker count (0 = GOMAXPROCS).
func TestConcurrentCollectMatchesSerial(t *testing.T) {
	const (
		seed   = 3
		target = 9000
	)
	want := collectSerial(Apache, Small, seed, target)
	for _, workers := range []int{1, 4, 0} {
		got := runExp(t, NewRunner(WithWorkers(workers)), Request{
			App: Apache, Scale: Small, Seed: seed, TargetMisses: target, KeepTraces: true,
		})
		compareExperiments(t, got, want)
	}
}

// TestCollectAllDeterministicOrder checks that a RunAll sweep over every
// app is repeatable: each app yields exactly once per sweep, and its
// experiment is identical across sweeps whatever order they complete in.
func TestCollectAllDeterministicOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping multi-app determinism sweep in short mode")
	}
	const (
		seed   = 5
		target = 3000
	)
	sweep := func() map[App]*Experiment {
		var reqs []Request
		for _, app := range Apps() {
			reqs = append(reqs, Request{App: app, Scale: Small, Seed: seed, TargetMisses: target, KeepTraces: true})
		}
		out := make(map[App]*Experiment)
		for exp, err := range NewRunner().RunAll(context.Background(), reqs...) {
			if err != nil {
				t.Fatalf("RunAll: %v", err)
			}
			if out[exp.App] != nil {
				t.Fatalf("RunAll yielded %v twice", exp.App)
			}
			out[exp.App] = exp
		}
		return out
	}
	a, b := sweep(), sweep()
	for _, app := range Apps() {
		if a[app] == nil || b[app] == nil {
			t.Fatalf("RunAll sweep missed %v", app)
		}
		compareExperiments(t, b[app], a[app])
	}
}
