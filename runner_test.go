package tempstream

import (
	"context"
	"errors"
	"testing"
)

// TestRunnerRunMatchesDeprecatedCollect pins the migration contract of
// the removed batch entrypoint: a Runner with its own pool, given a
// KeepTraces request with that entrypoint's parameters (seed 1, a
// 35000-miss window), must produce the strictly serial reference
// experiment field for field, traces included.
func TestRunnerRunMatchesDeprecatedCollect(t *testing.T) {
	want := collectSerial(Apache, Small, 1, 35000)
	r := NewRunner(WithWorkers(2))
	got, err := r.Run(context.Background(), Request{
		App: Apache, Scale: Small, Seed: 1, TargetMisses: 35000, KeepTraces: true,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	compareExperiments(t, got, want)
}

// TestRunnerStreamingResultShape checks Run's native (no KeepTraces)
// mode: no traces anywhere, headers folded, all contexts analyzed.
func TestRunnerStreamingResultShape(t *testing.T) {
	exp, err := NewRunner().Run(context.Background(), Request{
		App: Apache, Scale: Small, Seed: 1, TargetMisses: 4000,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if exp.MultiChip.OffChip != nil || exp.SingleChip.OffChip != nil || exp.SingleChip.IntraChip != nil {
		t.Errorf("streaming Run materialized raw traces")
	}
	for _, c := range Contexts() {
		cr := exp.Context(c)
		if cr == nil || cr.Analysis == nil {
			t.Fatalf("context %v missing", c)
		}
		if cr.Trace != nil {
			t.Errorf("context %v kept a trace without KeepTraces", c)
		}
		if cr.Header.Misses == 0 || cr.Header.CPUs == 0 {
			t.Errorf("context %v header not folded: %+v", c, cr.Header)
		}
	}
}

// TestRunAllYieldsEveryRequest checks the fan-out contract: every
// request yields exactly once (completion order, any order), with nil
// errors and the right app on each experiment.
func TestRunAllYieldsEveryRequest(t *testing.T) {
	reqs := []Request{
		{App: Apache, Scale: Small, Seed: 2, TargetMisses: 2500},
		{App: OLTP, Scale: Small, Seed: 2, TargetMisses: 2500},
	}
	seen := map[App]int{}
	for exp, err := range NewRunner().RunAll(context.Background(), reqs...) {
		if err != nil {
			t.Fatalf("RunAll yielded error: %v", err)
		}
		seen[exp.App]++
	}
	if seen[Apache] != 1 || seen[OLTP] != 1 || len(seen) != 2 {
		t.Errorf("RunAll yields = %v, want exactly one per request", seen)
	}
}

// TestRunAllEmpty: zero requests yield nothing and return immediately.
func TestRunAllEmpty(t *testing.T) {
	for range NewRunner().RunAll(context.Background()) {
		t.Fatal("RunAll with no requests yielded")
	}
}

// TestRunPreCancelled: a context cancelled before Run starts fails fast,
// before any simulation is constructed.
func TestRunPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	exp, err := NewRunner().Run(ctx, Request{App: OLTP, Scale: Small, Seed: 1, TargetMisses: 100000})
	if exp != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("Run on cancelled ctx = (%v, %v), want (nil, context.Canceled)", exp, err)
	}
}

// TestExperimentContextOutOfRange is the regression test for the
// Context accessor: out-of-range contexts must return nil, mirroring
// Context.String's "invalid context" rendering, instead of panicking.
func TestExperimentContextOutOfRange(t *testing.T) {
	exp := &Experiment{}
	for _, c := range []Context{-1, NumContexts, NumContexts + 7} {
		if got := exp.Context(c); got != nil {
			t.Errorf("Context(%d) = %v, want nil", c, got)
		}
		if got := c.String(); got != "invalid context" {
			t.Errorf("Context(%d).String() = %q, want %q", c, got, "invalid context")
		}
	}
	// In-range contexts still index the array directly.
	exp.Contexts[IntraChipCtx] = &ContextResult{}
	if exp.Context(IntraChipCtx) != exp.Contexts[IntraChipCtx] {
		t.Errorf("Context(IntraChipCtx) does not return the stored result")
	}
}
