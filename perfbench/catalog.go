package main

import (
	"fmt"
	"strings"
)

// metricDef is one catalog entry; README.md describes each.
type metricDef struct{ name, unit string }

// endToEnd is what every untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"records_per_s", "1/s"},
	{"sustained_sps", "1/s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer is what every traced run reports, on every workload. A layer
// the workload never enters reports 0.
var perLayer = []metricDef{
	{"workload.ns_per_instr", "ns"},
	{"workload.ns_per_miss", "ns"},
	{"workload.self_frac", "frac"},
	{"workload.instructions", "count"},
	{"workload.misses", "count"},
	{"tempstream.session_ns_per_record", "ns"},
	{"tempstream.result_ms", "ms"},
	{"tempstream.self_frac", "frac"},
	{"sequitur.ns_per_symbol", "ns"},
	{"sequitur.rules", "count"},
	{"core.ns_per_record", "ns"},
	{"core.window_records", "count"},
	{"prefetch.ns_per_record", "ns"},
	{"prefetch.accuracy", "frac"},
	{"wire.encode_ns_per_record", "ns"},
	{"wire.decode_ns_per_record", "ns"},
	{"wire.bytes_per_record", "B"},
	{"server.dial_ms_p50", "ms"},
	{"server.stream_ms_p50", "ms"},
	{"server.result_wait_ms_p50", "ms"},
	{"server.result_wait_ms_p99", "ms"},
	{"server.sessions_ok", "count"},
	{"server.sessions_failed", "count"},
	{"gateway.hop_ms_p50", "ms"},
	{"gateway.rerouted", "count"},
	{"gateway.backend_skew", "ratio"},
	{"store.commit_ms_p50", "ms"},
	{"store.commit_ms_p99", "ms"},
	{"store.manifest_entries", "count"},
	{"store.open_ms_p50", "ms"},
	{"store.stream_ns_per_decoded", "ns"},
	{"store.delivered_frac", "frac"},
	{"store.bytes", "B"},
	{"loadgen.late_ms_p99", "ms"},
	{"loadgen.backlog_max", "count"},
	{"bench.trace_overhead_frac", "frac"},
	{"bench.unattributed_frac", "frac"},
}

// unused reports 0 for the named per-layer metrics, or for every metric
// of a named layer: the workload does no work there.
func unused(o *outcome, names ...string) {
	for _, d := range perLayer {
		l, _, _ := strings.Cut(d.name, ".")
		for _, z := range names {
			if l == z || d.name == z {
				o.set(d.name, 0, d.unit, "not used by this workload")
			}
		}
	}
}

// checkComplete verifies that a run reports exactly its catalog, with
// the catalog's units.
func checkComplete(o *outcome, traced bool) error {
	want := endToEnd
	if traced {
		want = perLayer
	}
	if len(o.Metrics) != len(want) {
		return fmt.Errorf("reported %d metrics, catalog has %d", len(o.Metrics), len(want))
	}
	for _, d := range want {
		m, ok := o.Metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s not reported", d.name)
		}
		if m.Unit != d.unit {
			return fmt.Errorf("metric %s has unit %q, catalog says %q", d.name, m.Unit, d.unit)
		}
	}
	return nil
}
