package main

import (
	"bytes"
	"fmt"

	tempstream "repro"
	"repro/internal/core"
	"repro/internal/prefetch"
	"repro/internal/sequitur"
	"repro/internal/trace"
	"repro/internal/wire"
)

// The replays below drive one layer's public calls over a workload's
// own streams, one span per call (or per chunk of per-record calls).
// Layers called only from inside another layer (the analyzer inside a
// Session, the grammar inside the analyzer) are timed this way, and a
// layer's self time is its time minus the replayed time of the layer
// below it over the same records.

// setTempstream reports the Session metrics from the tempstream spans
// and returns the layer's total time per pass.
func setTempstream(o *outcome, l *ledger, passes int) int64 {
	appendNs, records, _ := l.total("tempstream.Session.AppendBatch")
	finishNs, _, _ := l.total("tempstream.Session.Finish")
	newNs, _, _ := l.total("tempstream.NewSession")
	resultNs, _, results := l.total("tempstream.Session.Result")
	o.set("tempstream.session_ns_per_record", float64(appendNs+finishNs)/float64(records), "ns",
		fmt.Sprintf("%d records", records))
	o.set("tempstream.result_ms", float64(resultNs)/1e6/float64(results), "ms",
		fmt.Sprintf("mean of %d Result calls", results))
	return (appendNs + finishNs + newNs + resultNs) / int64(passes)
}

// replaySessions feeds each stream through a default tempstream.Session,
// as the ingest server and the store's Analyze do, and reports the
// Session metrics.
func replaySessions(o *outcome, rec *recorder, streams []*stream) int64 {
	for i, s := range streams {
		id := rec.begin("tempstream.NewSession", 0, int64(i))
		ts := tempstream.NewSession(s.cpus(), 0, tempstream.StreamOptions{})
		rec.end(id, 0)
		for lo := 0; lo < len(s.Misses); lo += chunk {
			batch := s.Misses[lo:min(lo+chunk, len(s.Misses))]
			id := rec.begin("tempstream.Session.AppendBatch", 0, int64(i))
			ts.AppendBatch(batch)
			rec.end(id, int64(len(batch)))
		}
		id = rec.begin("tempstream.Session.Finish", 0, int64(i))
		ts.Finish(s.Header)
		rec.end(id, 0)
		id = rec.begin("tempstream.Session.Result", 0, int64(i))
		ts.Result(nil)
		rec.end(id, 0)
	}
	return setTempstream(o, rec.ledger(), 1)
}

// replayCore replays the analysis windows of streams through
// core.Analyzer and, separately, their symbols through sequitur.Grammar,
// and reports both layers plus tempstream's self share (tsNs is the
// Session time over the same streams).
func replayCore(o *outcome, rec *recorder, streams []*stream, tsNs int64) {
	an := core.NewAnalyzer()
	g := sequitur.New()
	var window, rules int64
	for i, s := range streams {
		id := rec.begin("core.Analyzer.Begin", 0, int64(i))
		an.Begin(s.cpus(), core.Options{})
		rec.end(id, 0)
		for lo := 0; lo < len(s.Misses); lo += chunk {
			batch := s.Misses[lo:min(lo+chunk, len(s.Misses))]
			id := rec.begin("core.Analyzer.FeedAll", 0, int64(i))
			an.FeedAll(batch)
			rec.end(id, int64(len(batch)))
		}
		id = rec.begin("core.Analyzer.Finish", 0, int64(i))
		a := an.Finish()
		rec.end(id, 0)
		window += int64(len(a.Misses))

		// The grammar sees the window's addresses, as the analyzer feeds
		// it, and is reused across streams, as the analyzer's is.
		g.Reset()
		w := s.Misses[:len(a.Misses)]
		for lo := 0; lo < len(w); lo += chunk {
			batch := w[lo:min(lo+chunk, len(w))]
			id := rec.begin("sequitur.Grammar.Append", 0, int64(i))
			for j := range batch {
				g.Append(batch[j].Addr)
			}
			rec.end(id, int64(len(batch)))
		}
		rules += int64(len(g.RuleIDs()))
	}
	l := rec.ledger()
	coreNs, _, _ := l.total("core")
	seqNs, symbols, _ := l.total("sequitur")
	o.set("sequitur.ns_per_symbol", float64(seqNs)/float64(symbols), "ns", fmt.Sprintf("%d symbols", symbols))
	o.set("sequitur.rules", float64(rules), "count", "(=)")
	o.set("core.ns_per_record", float64(coreNs-seqNs)/float64(window), "ns", "analyzer time minus grammar time")
	o.set("core.window_records", float64(window), "count", "(=)")
	o.set("tempstream.self_frac", max(0, float64(tsNs-coreNs)/float64(tsNs)), "frac", "Session time minus analyzer time")
}

// replayPrefetch steps an Evaluator with cfg over every stream.
func replayPrefetch(o *outcome, rec *recorder, streams []*stream, cfg prefetch.Config) {
	var used, issued int64
	for i, s := range streams {
		ev := prefetch.NewEvaluator(cfg)
		for lo := 0; lo < len(s.Misses); lo += chunk {
			batch := s.Misses[lo:min(lo+chunk, len(s.Misses))]
			id := rec.begin("prefetch.Evaluator.Step", 0, int64(i))
			for j := range batch {
				ev.Step(batch[j])
			}
			rec.end(id, int64(len(batch)))
		}
		r := ev.Result()
		used += int64(r.Used)
		issued += int64(r.Issued)
	}
	ns, records, _ := rec.ledger().total("prefetch")
	o.set("prefetch.ns_per_record", float64(ns)/float64(records), "ns", "")
	o.set("prefetch.accuracy", float64(used)/float64(issued), "frac", "used/issued over all streams (=)")
}

// replayWire encodes every stream to memory and decodes it back,
// checking the round trip's record count.
func replayWire(o *outcome, rec *recorder, streams []*stream) error {
	var bytesOut, records int64
	for i, s := range streams {
		var buf bytes.Buffer
		enc := wire.NewEncoder(&buf, s.cpus())
		for lo := 0; lo < len(s.Misses); lo += chunk {
			batch := s.Misses[lo:min(lo+chunk, len(s.Misses))]
			id := rec.begin("wire.Encoder.AppendBatch", 0, int64(i))
			enc.AppendBatch(batch)
			rec.end(id, int64(len(batch)))
		}
		id := rec.begin("wire.Encoder.Close", 0, int64(i))
		enc.Finish(s.Header)
		enc.SetSymbols(wire.FuncsOf(s.Symbols))
		err := enc.Close()
		rec.end(id, 0)
		if err != nil {
			return fmt.Errorf("encoding %s: %w", s.label(), err)
		}
		bytesOut += int64(buf.Len())
		records += int64(len(s.Misses))

		dec := wire.NewDecoder(&buf)
		var n countSink
		id = rec.begin("wire.Decoder.Run", 0, int64(i))
		_, err = dec.Run(&n)
		rec.end(id, int64(n))
		if err != nil || int(n) != len(s.Misses) {
			return fmt.Errorf("decoding %s: %d of %d records: %v", s.label(), n, len(s.Misses), err)
		}
	}
	l := rec.ledger()
	encNs, _, _ := l.total("wire.Encoder")
	decNs, _, _ := l.total("wire.Decoder")
	o.set("wire.encode_ns_per_record", float64(encNs)/float64(records), "ns", fmt.Sprintf("%d records", records))
	o.set("wire.decode_ns_per_record", float64(decNs)/float64(records), "ns", "")
	o.set("wire.bytes_per_record", float64(bytesOut)/float64(records), "B", "(=)")
	return nil
}

// countSink counts records.
type countSink int64

func (c *countSink) Append(trace.Miss)           { *c++ }
func (c *countSink) AppendBatch(ms []trace.Miss) { *c += countSink(len(ms)) }
func (c *countSink) Finish(trace.Header)         {}
