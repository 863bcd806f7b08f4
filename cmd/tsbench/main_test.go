package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestParseBenchCollapsesRepeats(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   string
		want []BenchResult
	}{
		{
			name: "single line passes through",
			in:   "BenchmarkA-8   \t 10\t 123 ns/op\t 4.5 misses/sec\n",
			want: []BenchResult{{Name: "BenchmarkA", Iterations: 10, NsPerOp: 123,
				Metrics: map[string]float64{"misses/sec": 4.5}}},
		},
		{
			name: "odd count: medians and IQR over median",
			in: "BenchmarkA-2 10 100 ns/op 8 B/op\n" +
				"BenchmarkA-2 30 300 ns/op 8 B/op\n" +
				"BenchmarkA-2 20 200 ns/op 8 B/op\n",
			want: []BenchResult{{Name: "BenchmarkA", Iterations: 20, NsPerOp: 200,
				Metrics: map[string]float64{"B/op": 8},
				Runs:    3,
				// Quartiles of {100,200,300} are 150 and 250.
				Spread: map[string]float64{"ns/op": 0.5, "B/op": 0}}},
		},
		{
			name: "even count interpolates; names keep first-appearance order",
			in: "BenchmarkB/sub-2 1 10 ns/op 0 allocs/op\n" +
				"BenchmarkA 1 7 ns/op\n" +
				"BenchmarkB/sub-2 1 20 ns/op 0 allocs/op\n" +
				"BenchmarkB/sub-2 1 30 ns/op 0 allocs/op\n" +
				"BenchmarkB/sub-2 1 40 ns/op 0 allocs/op\n",
			want: []BenchResult{
				// Median 25; quartiles 17.5 and 32.5. A zero median
				// (allocs/op) has no spread.
				{Name: "BenchmarkB/sub", Iterations: 1, NsPerOp: 25,
					Metrics: map[string]float64{"allocs/op": 0},
					Runs:    4, Spread: map[string]float64{"ns/op": 0.6}},
				{Name: "BenchmarkA", Iterations: 1, NsPerOp: 7},
			},
		},
		{
			name: "a metric missing from one run is the median of the rest",
			in: "BenchmarkC 5 1 ns/op 10 x/s\n" +
				"BenchmarkC 5 1 ns/op\n" +
				"BenchmarkC 5 1 ns/op 20 x/s\n",
			want: []BenchResult{{Name: "BenchmarkC", Iterations: 5, NsPerOp: 1,
				Metrics: map[string]float64{"x/s": 15},
				// Quartiles of {10,20} are 12.5 and 17.5.
				Runs: 3, Spread: map[string]float64{"ns/op": 0, "x/s": 5.0 / 15}}},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := parseBench(strings.NewReader("goos: linux\n" + tc.in + "PASS\n"))
			if len(got) != len(tc.want) {
				t.Fatalf("got %d entries, want %d: %+v", len(got), len(tc.want), got)
			}
			for i := range got {
				g, w := got[i], tc.want[i]
				if g.Name != w.Name || g.Iterations != w.Iterations || g.NsPerOp != w.NsPerOp || g.Runs != w.Runs ||
					!reflect.DeepEqual(g.Metrics, w.Metrics) || !closeMaps(g.Spread, w.Spread) {
					t.Errorf("entry %d:\n got %+v\nwant %+v", i, g, w)
				}
			}
		})
	}
}

func closeMaps(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok || math.Abs(v-w) > 1e-9 {
			return false
		}
	}
	return true
}

// TestGateComparesMedians: one slow outlier among five runs does not fail
// the gate, because the gate sees the collapsed median.
func TestGateComparesMedians(t *testing.T) {
	base := Artifact{Benchmarks: []BenchResult{{Name: "BenchmarkIngest", Metrics: map[string]float64{"records/sec": 100}}}}
	buf, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_1.json")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	run := func(rates ...string) []BenchResult {
		var b strings.Builder
		for _, r := range rates {
			b.WriteString("BenchmarkIngest-2 1 1 ns/op " + r + " records/sec\n")
		}
		return parseBench(strings.NewReader(b.String()))
	}
	if regs := gate(path, 0.25, "BenchmarkIngest:records/sec", run("98", "20", "101", "97", "99")); len(regs) != 0 {
		t.Errorf("median 98 vs baseline 100 regressed: %v", regs)
	}
	if regs := gate(path, 0.25, "BenchmarkIngest:records/sec", run("60", "200", "70", "65", "62")); len(regs) != 1 {
		t.Errorf("median 65 vs baseline 100 passed the 25%% band: %v", regs)
	}
}
