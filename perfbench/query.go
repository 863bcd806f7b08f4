package main

import (
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"time"

	tempstream "repro"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/wire"
)

// queryMinRuns keeps at least ten samples beyond latency_p99_ms.
const queryMinRuns = 1010

// queryCase is one query of the rotation with its reference answer.
type queryCase struct {
	name string
	q    store.Query
	// want holds the reference result per selected archive, in the
	// store's order.
	want []*server.SessionResult
	// decoded and delivered count the records the query decodes and the
	// records that reach the analysis.
	decoded, delivered int64
}

// queryState is one set-up's product: the filled store and the rotation.
type queryState struct {
	dir      string
	streams  []*stream
	rotation []*queryCase
}

// querySetup records the streams, archives each one into a fresh store,
// builds the rotation's references from the in-memory streams, and warms
// up with one rotation.
func querySetup(cfg config, dir string) (*queryState, error) {
	streams, err := recordStreams(cfg.seed, streamTargetFor(cfg), runtime.NumCPU())
	if err != nil {
		return nil, err
	}
	st, _, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	ids := make([]string, len(streams))
	for i, s := range streams {
		w, err := st.NewWriter(store.Meta{App: strings.ToLower(s.App.String()), Machine: s.Machine.String(),
			Scale: "small", Seed: s.Seed, Label: s.label()}, s.cpus())
		if err != nil {
			return nil, err
		}
		w.AppendBatch(s.Misses)
		w.Finish(s.Header)
		w.SetSymbols(wire.FuncsOf(s.Symbols))
		e, err := w.Commit()
		if err != nil {
			return nil, err
		}
		ids[i] = e.ID
	}
	qs := &queryState{dir: dir, streams: streams, rotation: rotation(streams, ids)}
	for _, c := range qs.rotation {
		if err := qs.query(c, nil, 0); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return qs, nil
}

// rotation is the fixed sequence of tsquery-analyze-shaped queries: per
// archive, the whole stream, a mid-stream window, CPU 0, the commonest
// miss class and the commonest function category; per (app, machine),
// the manifest predicate that selects its archives.
func rotation(streams []*stream, ids []string) []*queryCase {
	var out []*queryCase
	for i, s := range streams {
		n := int64(len(s.Misses))
		cpu := 0
		class, cat := commonest(s)
		id := ids[i]
		shapes := []struct {
			name string
			q    store.Query
		}{
			{"whole", store.Query{ID: id}},
			{"window", store.Query{ID: id, From: n / 4, To: 3 * n / 4}},
			{"cpu", store.Query{ID: id, CPU: &cpu}},
			{"class", store.Query{ID: id, Class: &class}},
			{"category", store.Query{ID: id, Category: &cat}},
		}
		for _, sh := range shapes {
			c := &queryCase{name: s.label() + "/" + sh.name, q: sh.q}
			c.add(s)
			out = append(out, c)
		}
		if !s.Intra {
			c := &queryCase{name: s.label() + "/manifest",
				q: store.Query{Apps: []string{strings.ToLower(s.App.String())}, Machines: []string{s.Machine.String()}}}
			for _, t := range streams {
				if t.App == s.App && t.Machine == s.Machine {
					c.add(t)
				}
			}
			out = append(out, c)
		}
	}
	return out
}

// commonest is the most frequent miss class and function category of a
// stream, so the filtered queries keep a similar share of every seed's
// records.
func commonest(s *stream) (trace.MissClass, trace.Category) {
	var classes [trace.NumMissClasses]int
	var cats [trace.NumCategories]int
	for _, m := range s.Misses {
		classes[m.Class]++
		cats[s.Symbols.CategoryOf(m.Func)]++
	}
	var class trace.MissClass
	var cat trace.Category
	for c := range classes {
		if classes[c] > classes[class] {
			class = trace.MissClass(c)
		}
	}
	for c := range cats {
		if cats[c] > cats[cat] {
			cat = trace.Category(c)
		}
	}
	return class, cat
}

// add appends the reference for one selected archive: the in-memory
// stream cut to the query's range, then filtered, fed to a Session
// that finishes with the whole recording's header, as Store.Stream does.
func (c *queryCase) add(s *stream) {
	ms := s.Misses
	if c.q.To > 0 {
		ms = ms[:c.q.To]
	}
	ms = ms[c.q.From:]
	ts := tempstream.NewSession(s.cpus(), 0, tempstream.StreamOptions{})
	var kept []trace.Miss
	for _, m := range ms {
		if (c.q.CPU == nil || int(m.CPU) == *c.q.CPU) && (c.q.Class == nil || m.Class == *c.q.Class) &&
			(c.q.Category == nil || s.Symbols.CategoryOf(m.Func) == *c.q.Category) {
			kept = append(kept, m)
		}
	}
	ts.AppendBatch(kept)
	ts.Finish(s.Header)
	c.want = append(c.want, server.ResultOf(ts.Result(s.Symbols)))
	c.delivered += int64(len(kept))
	c.decoded += int64(len(s.Misses))
	if c.q.Category != nil {
		c.decoded += int64(len(s.Misses)) // the first pass recovers the symbol table
	}
}

// query runs one case as tsquery analyze does, store.Open then
// Store.Analyze, and checks the answer.
func (qs *queryState) query(c *queryCase, rec *recorder, run int64) error {
	root := rec.begin("bench.query", 0, run)
	defer rec.end(root, c.delivered)
	id := rec.begin("store.Open", root, run)
	st, damaged, err := store.Open(qs.dir)
	rec.end(id, 0)
	if err != nil || len(damaged) > 0 {
		return fmt.Errorf("%s: store.Open: %v %v", c.name, err, damaged)
	}
	id = rec.begin("store.Store.Analyze", root, run)
	res, errs := st.Analyze(c.q, tempstream.StreamOptions{})
	rec.end(id, c.decoded)
	if len(errs) > 0 {
		return fmt.Errorf("%s: %v", c.name, errs[0])
	}
	if len(res) != len(c.want) {
		return fmt.Errorf("%s: %d archives selected, want %d", c.name, len(res), len(c.want))
	}
	for i, r := range res {
		id := rec.begin("server.ResultOf", root, run)
		got := server.ResultOf(r.Context)
		rec.end(id, 0)
		if !reflect.DeepEqual(got, c.want[i]) {
			return fmt.Errorf("%s: archive %s differs from the in-memory reference", c.name, r.Entry.ID)
		}
	}
	return nil
}

func runQuery(cfg config) (*outcome, error) {
	o := newOutcome()
	var setups []float64
	var qs *queryState
	for i := range setupRepeats {
		runtime.GC() // each set-up starts without the previous one's garbage
		start := time.Now()
		s, err := querySetup(cfg, filepath.Join(cfg.workDir, fmt.Sprintf("store%d", i)))
		if err != nil {
			return nil, fmt.Errorf("query set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		qs = s
	}
	if cfg.corrupt {
		for _, c := range qs.rotation {
			for i, w := range c.want {
				c.want[i] = corrupted(w)
			}
		}
	}
	if cfg.trace {
		return o, queryTraced(cfg, qs, o)
	}
	o.set("setup_s", median(setups), "s", fmt.Sprintf("median of %d", setupRepeats))
	mem := startMemPeak()

	minRuns := queryMinRuns
	if cfg.small {
		minRuns = len(qs.rotation)
	}
	// Queries are timed on the process CPU clock, which stands still while
	// other tenants of a shared host hold the vCPU; on the wall clock
	// their time slices land on most multi-millisecond queries. The query
	// path runs on this goroutine alone and reads from the page cache, so
	// it waits on nothing but the CPU. One P keeps the runtime from
	// marking garbage on the idle P, which the clock would count by how
	// free the other vCPU happens to be. A busy host also runs every
	// cycle slower; the reference task after each rotation measures by
	// how much, and every time is scaled to refNominal over its median
	// (see README.md).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	ref := newRefTask()
	var lat, wallLat, refs samples
	var delivered int64
	var cpu time.Duration
	start := time.Now()
	for time.Since(start).Seconds() < cfg.seconds || o.Attempted < int64(minRuns) {
		for _, c := range qs.rotation {
			t0, c0 := time.Now(), cpuClock(clockProcessCPU)
			err := qs.query(c, nil, 0)
			dc, d := cpuClock(clockProcessCPU)-c0, time.Since(t0)
			o.Attempted++
			if err != nil {
				o.fail(err.Error())
				continue
			}
			lat.add(dc)
			wallLat.add(d)
			cpu += dc
			delivered += c.delivered
		}
		refs.add(ref.time())
	}
	wall := time.Since(start).Seconds()
	scale := refNominal.Seconds() * 1e3 / refs.quantile(0.5)
	for i := range lat {
		lat[i] *= scale
	}
	o.setLatency(lat)
	scaled := cpu.Seconds() * scale
	o.set("records_per_s", float64(delivered)/scaled, "1/s",
		fmt.Sprintf("%d records analyzed in %.2f scaled CPU seconds", delivered, scaled))
	o.set("sustained_sps", float64(len(lat))/scaled, "1/s", "queries completed per scaled CPU second, closed loop, GOMAXPROCS=1")
	fmt.Printf("# reference task: median %.4g ms of %d runs, scale %.4g\n", refs.quantile(0.5), len(refs), scale)
	fmt.Printf("# unscaled CPU clock: p50 %.4g ms, p90 %.4g ms, p99 %.4g ms, %.4g records/s\n",
		lat.quantile(0.5)/scale, lat.quantile(0.9)/scale, lat.quantile(0.99)/scale, float64(delivered)/cpu.Seconds())
	fmt.Printf("# wall clock: p50 %.4g ms, p90 %.4g ms, p99 %.4g ms, %.4g records/s, %.4g queries/s over %.2fs\n",
		wallLat.quantile(0.5), wallLat.quantile(0.9), wallLat.quantile(0.99), float64(delivered)/wall, float64(len(lat))/wall, wall)
	o.set("peak_rss_mb", mem.stop(), "MiB", "peak retained memory of the measured phase")
	return o, nil
}

// queryTraced is the traced query run: rotations untraced and traced in
// turn for the overhead, traced rotations until the run's time is up
// for the store metrics, replays of the archived streams through the
// lower layers, and the served write side that fills a store (see
// servedLayers), so the serving tier's layers are measured by a workload
// whose end-to-end figures hold steady on a shared host.
func queryTraced(cfg config, qs *queryState, o *outcome) error {
	rotate := func(rec *recorder, base int64) error {
		for i, c := range qs.rotation {
			o.Attempted++
			if err := qs.query(c, rec, base+int64(i)); err != nil {
				o.fail(err.Error())
			}
		}
		return nil
	}
	// Alternate untraced and traced rotations for the overhead, then keep
	// tracing until the run's time is up.
	rec := newRecorder()
	var from int64
	var untraced, traced samples
	rotations := 0
	for start := time.Now(); rotations < 3 || time.Since(start).Seconds() < cfg.seconds; rotations++ {
		if rotations < 3 {
			t0 := time.Now()
			rotate(nil, 0)
			untraced.add(time.Since(t0))
		}
		if rotations == 2 {
			from = rec.now() // the traced rotations from here on are contiguous
		}
		t0 := time.Now()
		rotate(rec, int64(rotations*len(qs.rotation)))
		traced.add(time.Since(t0))
	}
	to := rec.now()
	l := rec.ledger()
	o.set("bench.trace_overhead_frac", traced.quantile(0.5)/untraced.quantile(0.5)-1, "frac",
		fmt.Sprintf("median rotation traced %.1f ms vs untraced %.1f ms", traced.quantile(0.5), untraced.quantile(0.5)))
	o.set("bench.unattributed_frac", l.unattributed(from, to), "frac",
		fmt.Sprintf("over the %d contiguous traced rotations", rotations-2))
	open := l.durations("store.Open")
	o.set("store.open_ms_p50", open.quantile(0.5), "ms", open.note(0.5))
	anNs, decoded, _ := l.total("store.Store.Analyze")
	var delivered int64
	for _, c := range qs.rotation {
		delivered += c.delivered
	}
	delivered *= int64(rotations)
	o.set("store.stream_ns_per_decoded", float64(anNs)/float64(decoded), "ns", "Analyze time per record decoded")
	o.set("store.delivered_frac", float64(delivered)/float64(decoded), "frac", "records analyzed / records decoded")
	st, _, err := store.Open(qs.dir)
	if err != nil {
		return err
	}
	var bytes int64
	for _, e := range st.Entries() {
		bytes += e.Bytes
	}
	o.set("store.bytes", float64(bytes), "B", "(=)")

	tsNs := replaySessions(o, rec, qs.streams)
	replayCore(o, rec, qs.streams, tsNs)
	if err := replayWire(o, rec, qs.streams); err != nil {
		return err
	}
	// The write side that fills an archive store: the same streams
	// served through a gateway fleet, as the ingest workload does.
	served, err := serve(cfg, filepath.Join(cfg.workDir, "served"), qs.streams)
	if err != nil {
		return err
	}
	if err := servedLayers(cfg, served, o, rec, len(qs.streams)); err != nil {
		return err
	}
	unused(o, "workload")
	return rec.write(cfg.spansPath)
}
