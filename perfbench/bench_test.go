package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// exact names the (=) counts: deterministic for a seed, identical
// across runs and across speed-only changes.
var exact = []string{
	"workload.instructions", "workload.misses", "sequitur.rules", "core.window_records",
	"prefetch.accuracy", "wire.bytes_per_record", "store.bytes",
}

// short runs one workload in the benchmark's small configuration.
func short(t *testing.T, workload string, trace, corrupt bool) *outcome {
	t.Helper()
	dir := t.TempDir()
	cfg := config{workload: workload, seed: 7, seconds: 0.1, trace: trace, corrupt: corrupt, small: true,
		workDir: dir, spansPath: filepath.Join(dir, "spans.jsonl")}
	o, err := workloads[workload](cfg)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	if err := checkComplete(o, trace); err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	return o
}

// TestWorkloadsShort runs every workload, untraced and twice traced, in
// a short configuration: each passes its output checks, reports its
// whole catalog, and repeats every (=) count exactly.
func TestWorkloadsShort(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			o := short(t, name, false, false)
			if !o.Correct || o.Failed != 0 || o.Attempted == 0 {
				t.Fatalf("untraced: correct=%v failed=%d attempted=%d causes=%v", o.Correct, o.Failed, o.Attempted, o.causes)
			}
			a := short(t, name, true, false)
			b := short(t, name, true, false)
			for _, tr := range []*outcome{a, b} {
				if !tr.Correct || tr.Failed != 0 {
					t.Fatalf("traced: correct=%v failed=%d causes=%v", tr.Correct, tr.Failed, tr.causes)
				}
			}
			for _, n := range exact {
				if a.Metrics[n] != b.Metrics[n] {
					t.Errorf("(=) count %s differs between two runs of seed 7: %v vs %v", n, a.Metrics[n], b.Metrics[n])
				}
			}
		})
	}
}

// TestWrongReferenceCaught injects a wrong reference into every
// workload's checks and expects failures, so the checks can fail.
func TestWrongReferenceCaught(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			o := short(t, name, false, true)
			if o.Correct || o.Failed == 0 {
				t.Fatalf("a wrong reference went unnoticed: correct=%v failed=%d", o.Correct, o.Failed)
			}
		})
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and the metrics
// the benchmark prints in step.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not in the benchmark", w.Name)
		}
	}
	for _, c := range []struct {
		json    []def
		catalog []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.json) != len(c.catalog) {
			t.Errorf("BENCHMARK.json lists %d metrics, the catalog %d", len(c.json), len(c.catalog))
			continue
		}
		for i, d := range c.catalog {
			if c.json[i].Name != d.name || c.json[i].Unit != d.unit {
				t.Errorf("metric %d: BENCHMARK.json %s/%s, catalog %s/%s", i, c.json[i].Name, c.json[i].Unit, d.name, d.unit)
			}
		}
	}
}

// TestLedger checks self time and unattributed time on a fixed recording.
func TestLedger(t *testing.T) {
	r := &recorder{spans: []span{
		{ID: 1, Name: "bench.request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "workload.RunStream", Start: 0, End: 80},
		{ID: 3, Parent: 2, Name: "tempstream.Session.AppendBatch", Start: 10, End: 30, Items: 4},
		{ID: 4, Parent: 2, Name: "tempstream.Session.AppendBatch", Start: 25, End: 40, Items: 4},
		{ID: 5, Parent: 1, Name: "tempstream.Session.Result", Start: 90, End: 95},
	}}
	l := r.ledger()
	if got := l.self("workload.RunStream"); got != 80-30 {
		t.Errorf("self = %d, want 50 (children overlap on [25,30))", got)
	}
	if ns, items, n := l.total("tempstream"); ns != 40 || items != 8 || n != 3 {
		t.Errorf("total = %d ns, %d items, %d spans; want 40, 8, 3", ns, items, n)
	}
	if got := l.unattributed(0, 100); math.Abs(got-0.15) > 1e-9 {
		t.Errorf("unattributed = %v, want 0.15 ([80,90) and [95,100))", got)
	}
	if got := samples([]float64{1, 2, 3, 4}).quantile(0.5); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}
