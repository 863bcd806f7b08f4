package main

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"time"

	tempstream "repro"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/workload"
)

// collectTarget is the off-chip miss target of every collect request.
const collectTarget = 20000

// collectSeeds is how many distinct seeds each app cycles through: enough
// that a run's timings average over the seeds' differing simulations,
// few enough that every (app, seed) pair repeats within a run and its
// results can be checked against each other.
const collectSeeds = 6

// collectMinRuns keeps at least ten samples beyond latency_p90_ms. As
// 18 whole passes, it also puts the median and p90 inside one app's
// group of samples rather than on the boundary between two.
const collectMinRuns = 108

// collectRequests is pass i of the closed loop: all six apps in turn,
// with the pass's seed from a pool derived from the run's seed.
func collectRequests(seed int64, pass int) []tempstream.Request {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]int64, collectSeeds)
	for i := range pool {
		pool[i] = rng.Int63n(1 << 31)
	}
	var reqs []tempstream.Request
	for _, app := range tempstream.Apps() {
		reqs = append(reqs, tempstream.Request{App: app, Scale: tempstream.Small,
			Seed: pool[pass%collectSeeds], TargetMisses: collectTarget})
	}
	return reqs
}

// images condenses an experiment into its three per-context results.
func images(exp *tempstream.Experiment) [tempstream.NumContexts]*server.SessionResult {
	var out [tempstream.NumContexts]*server.SessionResult
	for c, cr := range exp.Contexts {
		out[c] = server.ResultOf(cr)
	}
	return out
}

func recordsOf(im [tempstream.NumContexts]*server.SessionResult) int64 {
	var n int64
	for _, r := range im {
		n += int64(r.Header.Misses)
	}
	return n
}

// collectSetup builds the runner and warms it with one small request.
func collectSetup() (*tempstream.Runner, error) {
	r := tempstream.NewRunner()
	_, err := r.Run(context.Background(), tempstream.Request{App: tempstream.Qry1, Scale: tempstream.Small, Seed: 1, TargetMisses: collectTarget})
	return r, err
}

func runCollect(cfg config) (*outcome, error) {
	o := newOutcome()
	var setups []float64
	var runner *tempstream.Runner
	for range setupRepeats {
		runtime.GC() // each set-up starts without the previous one's garbage
		start := time.Now()
		r, err := collectSetup()
		if err != nil {
			return nil, fmt.Errorf("collect set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		runner = r
	}
	if cfg.trace {
		return o, collectTraced(cfg, runner, o)
	}
	o.set("setup_s", median(setups), "s", fmt.Sprintf("median of %d", setupRepeats))
	mem := startMemPeak()

	minRuns := collectMinRuns
	if cfg.small {
		minRuns = 7 * 3 // seven passes of the three DSS apps: (app, seed) pairs repeat
	}
	type key struct {
		app  tempstream.App
		seed int64
	}
	refs := map[key][tempstream.NumContexts]*server.SessionResult{}
	var lat samples
	var passMedians []float64
	var records int64
	start := time.Now()
	for pass := 0; time.Since(start).Seconds() < cfg.seconds || o.Attempted < int64(minRuns); pass++ {
		reqs := collectRequests(cfg.seed, pass)
		if cfg.small {
			reqs = reqs[3:]
		}
		var passLat samples
		for _, req := range reqs {
			t0 := time.Now()
			exp, err := runner.Run(context.Background(), req)
			d := time.Since(t0)
			o.Attempted++
			if err != nil {
				o.fail(fmt.Sprintf("%v seed %d: %v", req.App, req.Seed, err))
				continue
			}
			lat.add(d)
			passLat.add(d)
			im := images(exp)
			records += recordsOf(im)
			k := key{req.App, req.Seed}
			ref, ok := refs[k]
			if !ok {
				if cfg.corrupt {
					im[0] = corrupted(im[0])
				}
				refs[k] = im
				continue
			}
			if !reflect.DeepEqual(im, ref) {
				o.fail(fmt.Sprintf("%v seed %d: result differs from the same request's first run", req.App, req.Seed))
			}
		}
		passMedians = append(passMedians, passLat.quantile(0.5))
	}
	wall := time.Since(start).Seconds()
	// The six apps take distinct, non-overlapping times, so the median
	// of all Runs falls in the gap between the third and fourth app and
	// would be set by two extreme samples. The median over the passes of
	// each pass's median uses every pass instead.
	o.setLatency(lat)
	o.set("latency_p50_ms", median(passMedians), "ms", fmt.Sprintf("median over %d passes of each pass's median Run", len(passMedians)))
	o.set("records_per_s", float64(records)/wall, "1/s", fmt.Sprintf("%d records in %.2fs", records, wall))
	o.set("sustained_sps", float64(len(lat))/wall, "1/s", "Runs completed per second, closed loop")
	o.set("peak_rss_mb", mem.stop(), "MiB", "peak retained memory of the measured phase")
	return o, nil
}

// corrupted returns a copy of r with one field off, standing in for a
// wrong reference.
func corrupted(r *server.SessionResult) *server.SessionResult {
	c := *r
	c.Window++
	return &c
}

// timedSink sits between workload.RunStream and one Session: it gathers
// the simulator's records into chunks and delivers each chunk in one
// traced Session.AppendBatch, so time inside the sink is the analysis
// layer's and the rest of RunStream is the simulator's own.
type timedSink struct {
	s      *tempstream.Session
	rec    *recorder
	parent int32
	run    int64
	buf    []trace.Miss
}

// chunk is the batch size of every traced per-record call: one span
// covers this many records, so the span costs far less than the work.
const chunk = 4096

func (t *timedSink) Append(m trace.Miss) {
	t.buf = append(t.buf, m)
	if len(t.buf) == chunk {
		t.flush()
	}
}

func (t *timedSink) flush() {
	if len(t.buf) == 0 {
		return
	}
	id := t.rec.begin("tempstream.Session.AppendBatch", t.parent, t.run)
	t.s.AppendBatch(t.buf)
	t.rec.end(id, int64(len(t.buf)))
	t.buf = t.buf[:0]
}

func (t *timedSink) Finish(h trace.Header) {
	t.flush()
	id := t.rec.begin("tempstream.Session.Finish", t.parent, t.run)
	t.s.Finish(h)
	t.rec.end(id, 0)
}

// driven is one serially driven request's per-context results.
type driven struct {
	images [tempstream.NumContexts]*server.SessionResult
	instr  uint64
}

// driveSerial runs one request through the same Session machinery as
// Runner.Run, but on one goroutine with the two machines in turn, so
// the spans nest and the stages add up to the wall-clock.
func driveSerial(rec *recorder, run int64, req tempstream.Request) (*driven, error) {
	out := &driven{}
	root := rec.begin("bench.request", 0, run)
	defer rec.end(root, 0)
	for _, m := range []workload.MachineKind{workload.MultiChip, workload.SingleChip} {
		ctxs := []tempstream.Context{tempstream.MultiChipCtx}
		expect := []int{req.TargetMisses}
		if m == workload.SingleChip {
			ctxs = []tempstream.Context{tempstream.SingleChipCtx, tempstream.IntraChipCtx}
			expect = []int{req.TargetMisses, 40 * req.TargetMisses}
		}
		rs := rec.begin("workload.RunStream", root, run)
		sinks := make([]*timedSink, len(ctxs))
		for i := range ctxs {
			id := rec.begin("tempstream.NewSession", rs, run)
			s := tempstream.NewSession(m.CPUCount(), expect[i], tempstream.StreamOptions{})
			rec.end(id, 0)
			sinks[i] = &timedSink{s: s, rec: rec, parent: rs, run: run, buf: make([]trace.Miss, 0, chunk)}
		}
		var intra trace.Sink
		if len(sinks) > 1 {
			intra = sinks[1]
		}
		cfg := workload.Config{App: req.App, Machine: m, Scale: req.Scale, Seed: req.Seed, TargetMisses: req.TargetMisses}
		res, err := workload.RunStreamContext(context.Background(), cfg, sinks[0], intra)
		rec.end(rs, 0)
		if err != nil {
			for _, s := range sinks {
				s.s.Close()
			}
			return nil, err
		}
		for i, c := range ctxs {
			id := rec.begin("tempstream.Session.Result", root, run)
			cr := sinks[i].s.Result(res.SymTab)
			rec.end(id, 0)
			id = rec.begin("server.ResultOf", root, run)
			out.images[c] = server.ResultOf(cr)
			rec.end(id, 0)
		}
		out.instr += out.images[ctxs[0]].Header.Instructions
	}
	return out, nil
}

// collectTraced is the traced collect run: one pass of the six requests
// untraced and then traced, serially, for the overhead; further traced
// passes until the run's time is up; the check that the traced drive
// matches Runner.Run, whose kept context streams feed the layer replays.
func collectTraced(cfg config, runner *tempstream.Runner, o *outcome) error {
	reqs := collectRequests(cfg.seed, 0)
	if cfg.small {
		reqs = reqs[3:4]
	}
	t0 := time.Now()
	for i, req := range reqs {
		if _, err := driveSerial(nil, int64(i), req); err != nil {
			return err
		}
	}
	untraced := time.Since(t0).Seconds()

	rec := newRecorder()
	from := rec.now()
	var first []*driven
	passes := 0
	var tracedFirst float64
	for start := time.Now(); passes == 0 || time.Since(start).Seconds() < cfg.seconds; passes++ {
		p0 := time.Now()
		for i, req := range reqs {
			d, err := driveSerial(rec, int64(passes*len(reqs)+i+1), req)
			if err != nil {
				return err
			}
			if passes == 0 {
				first = append(first, d)
			}
		}
		if passes == 0 {
			tracedFirst = time.Since(p0).Seconds()
		}
	}
	to := rec.now()

	// Check: the traced drive's per-context results equal Runner.Run's.
	var streams []*stream
	var instr, misses int64
	for i, req := range reqs {
		o.Attempted++
		keep := req
		keep.KeepTraces = true
		exp, err := runner.Run(context.Background(), keep)
		if err != nil {
			o.fail(fmt.Sprintf("%v: Runner.Run: %v", req.App, err))
			continue
		}
		want := images(exp)
		if cfg.corrupt {
			want[0] = corrupted(want[0])
		}
		if !reflect.DeepEqual(first[i].images, want) {
			o.fail(fmt.Sprintf("%v seed %d: traced drive differs from Runner.Run", req.App, req.Seed))
		}
		instr += int64(first[i].instr)
		misses += recordsOf(first[i].images)
		for c, cr := range exp.Contexts {
			m := workload.SingleChip
			if tempstream.Context(c) == tempstream.MultiChipCtx {
				m = workload.MultiChip
			}
			streams = append(streams, &stream{App: req.App, Machine: m, Seed: req.Seed, Misses: cr.Trace.Misses})
		}
	}

	l := rec.ledger()
	fp := float64(passes)
	rsNs, _, _ := l.total("workload.RunStream")
	simSelf := l.self("workload.RunStream")
	o.set("workload.ns_per_instr", float64(simSelf)/(fp*float64(instr)), "ns", "simulator self time per measured instruction")
	o.set("workload.ns_per_miss", float64(simSelf)/(fp*float64(misses)), "ns", "")
	o.set("workload.self_frac", float64(simSelf)/float64(rsNs), "frac", "RunStream time outside the sinks")
	o.set("workload.instructions", float64(instr), "count", "per pass (=)")
	o.set("workload.misses", float64(misses), "count", "per pass (=)")

	replayCore(o, rec, streams, setTempstream(o, l, passes))
	unused(o, "prefetch", "wire", "server", "gateway", "store", "loadgen")
	o.set("bench.trace_overhead_frac", tracedFirst/untraced-1, "frac",
		fmt.Sprintf("one pass traced %.3fs vs untraced %.3fs", tracedFirst, untraced))
	o.set("bench.unattributed_frac", l.unattributed(from, to), "frac", fmt.Sprintf("%d traced passes", passes))
	return rec.write(cfg.spansPath)
}
