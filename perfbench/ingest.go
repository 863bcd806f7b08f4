package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	tempstream "repro"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/obs"
	"repro/internal/prefetch"
	"repro/internal/server"
	"repro/internal/store"
)

const (
	// streamTarget is the off-chip miss target of the streams ingest and
	// query replay. It is a tenth of collect's so that a run holds the
	// thousand sessions latency_p99_ms needs.
	streamTarget = 2000
	// nominalRate is ingest's offered load (sessions/s) for its latency
	// metrics: low enough that the fleet stays far from saturation when
	// the host lends it only part of its two CPUs.
	nominalRate = 30.0
	// nominalSessions keeps at least ten samples beyond latency_p99_ms.
	nominalSessions = 1010
	// segmentSessions is how many nominal-rate sessions one fleet serves
	// before the next segment starts on a fresh fleet (see segmented).
	segmentSessions = 101
	// p99LimitMs is the latency_p99_ms limit a ladder step must meet for
	// sustained_sps; BENCHMARK.json states it in the ingest workload.
	p99LimitMs = 250.0
	// ladderBase and ladderRatio fix the ladder of offered rates:
	// ladderBase * ladderRatio^k sessions/s, k = 0..ladderSteps-1.
	ladderBase  = nominalRate
	ladderRatio = 1.05
	ladderSteps = 50
	// stepSessions is the length of one ladder step; a step passes when
	// at most 1% of its sessions miss the limit and its queue does not
	// grow.
	stepSessions = 300
	// maxProbes bounds the ladder walk. A walk cut short reports the
	// highest step that met the limit so far.
	maxProbes = 5
)

// pfConfig is the bounded prefetcher half of the sessions request (the
// configuration tsload -prefetch sends).
var pfConfig = prefetch.Config{Depth: 8, HistoryLen: 20000, BufferBlocks: 2048}

// fleet is the in-process serving tier: a gateway in front of two
// servers, each teeing into its own store.
type fleet struct {
	gw      *gateway.Gateway
	servers []*server.Server
	stores  []*store.Store
	dirs    []string
	wg      sync.WaitGroup
}

func startFleet(dir string) (*fleet, error) {
	f := &fleet{}
	var addrs []string
	for i := range 2 {
		d := filepath.Join(dir, fmt.Sprintf("store%d", i))
		st, damaged, err := store.Open(d)
		if err != nil || len(damaged) > 0 {
			f.close()
			return nil, fmt.Errorf("opening store %s: %v %v", d, err, damaged)
		}
		srv, err := server.Listen("127.0.0.1:0", server.Config{Name: fmt.Sprintf("backend%d", i), Archive: st})
		if err != nil {
			f.close()
			return nil, err
		}
		f.servers = append(f.servers, srv)
		f.stores = append(f.stores, st)
		f.dirs = append(f.dirs, d)
		addrs = append(addrs, srv.Addr().String())
		f.wg.Add(1)
		go func() { defer f.wg.Done(); srv.Serve() }()
	}
	gw, err := gateway.Listen("127.0.0.1:0", gateway.Config{Backends: addrs})
	if err != nil {
		f.close()
		return nil, err
	}
	f.gw = gw
	f.wg.Add(1)
	go func() { defer f.wg.Done(); gw.Serve() }()
	for deadline := time.Now().Add(10 * time.Second); gw.Stats().HealthyBackends < len(addrs); {
		if time.Now().After(deadline) {
			f.close()
			return nil, errors.New("gateway backends not healthy within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	return f, nil
}

// close stops the gateway and the servers and waits for them.
func (f *fleet) close() {
	if f.gw != nil {
		f.gw.Close()
	}
	for _, s := range f.servers {
		s.Close()
	}
	f.wg.Wait()
}

// archived counts the manifest entries on disk across the fleet's stores.
func (f *fleet) archived() (int, error) {
	n := 0
	for _, d := range f.dirs {
		st, damaged, err := store.Open(d)
		if err != nil {
			return 0, err
		}
		if len(damaged) > 0 {
			return 0, fmt.Errorf("store %s: %v", d, damaged)
		}
		n += len(st.Entries())
	}
	return n, nil
}

// spec is one session: which stream it replays and whether it requests
// the bounded prefetcher.
type spec struct {
	stream   int
	prefetch bool
}

// refKey indexes the reference results.
func (s spec) refKey() int {
	if s.prefetch {
		return 2*s.stream + 1
	}
	return 2 * s.stream
}

// references computes, in process, what the server must answer for
// every (stream, prefetch) pair: server.ResultOf over a tempstream
// Session with the server's options.
func references(streams []*stream) []*server.SessionResult {
	refs := make([]*server.SessionResult, 2*len(streams))
	for i, s := range streams {
		for _, pf := range []bool{false, true} {
			opts := tempstream.StreamOptions{Analysis: core.Options{MaxMisses: core.DefaultMaxMisses}}
			if pf {
				c := pfConfig
				opts.Prefetch = &c
			}
			ts := tempstream.NewSession(s.cpus(), 0, opts)
			ts.AppendBatch(s.Misses)
			ts.Finish(s.Header)
			refs[spec{i, pf}.refKey()] = server.ResultOf(ts.Result(nil))
		}
	}
	return refs
}

// arrival is one scheduled session.
type arrival struct {
	due time.Duration
	spec
}

// poisson draws n arrivals at rate per second. The sessions cycle
// through every (stream, prefetch) pair in a fresh random order per
// cycle, so every schedule of a given length carries nearly the same
// work whatever the seed; only the arrival times are independent.
func poisson(rng *rand.Rand, rate float64, n, streams int) []arrival {
	out := make([]arrival, n)
	var t float64
	var cycle []int
	for i := range out {
		if len(cycle) == 0 {
			cycle = rng.Perm(2 * streams)
		}
		k := cycle[0]
		cycle = cycle[1:]
		t += rng.ExpFloat64() / rate
		out[i] = arrival{due: time.Duration(t * float64(time.Second)), spec: spec{stream: k / 2, prefetch: k%2 == 1}}
	}
	return out
}

// sessionOutcome is one finished session.
type sessionOutcome struct {
	arrival
	latency time.Duration // completion - due
	late    time.Duration // dispatch - due: the generator's own lateness
	wait    time.Duration // start - due: queueing for a connection
	records int
	err     error
}

// phase is one open-loop run of a schedule.
type phase struct {
	out        []sessionOutcome
	backlogMax int
	wall       time.Duration
}

// loadgen replays schedules against one address.
type loadgen struct {
	streams []*stream
	refs    []*server.SessionResult
	workers int
	seed    int64
	rec     *recorder
}

// run replays sched open-loop: one dispatcher releases each arrival at
// its due time, and at most lg.workers connections are in flight; the
// rest wait in the generator's queue, and their latency counts from the
// due time. Every session is checked against its reference. A refusal,
// a transport error or a retry fails the session: nothing is retried
// out of sight.
func (lg *loadgen) run(addr string, sched []arrival) phase {
	type item struct {
		arrival
		index int
		late  time.Duration
	}
	queue := make(chan item, len(sched)) // sized to the number of sends
	out := make([]sessionOutcome, len(sched))
	var mu sync.Mutex
	queued, backlogMax := 0, 0
	start := time.Now()
	var wg sync.WaitGroup
	for range lg.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range queue {
				mu.Lock()
				queued--
				mu.Unlock()
				begin := time.Since(start)
				so := lg.session(addr, it.arrival, int64(it.index))
				so.late = it.late
				so.wait = begin - it.due
				so.latency = time.Since(start) - it.due
				out[it.index] = so
			}
		}()
	}
	for i, a := range sched {
		if d := a.due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		late := time.Since(start) - a.due
		mu.Lock()
		queued++
		backlogMax = max(backlogMax, queued)
		mu.Unlock()
		queue <- item{a, i, late}
	}
	close(queue)
	wg.Wait()
	return phase{out: out, backlogMax: backlogMax, wall: time.Since(start)}
}

// session streams one recorded stream through server.DialResilient (the
// tsload client) and checks the answer.
func (lg *loadgen) session(addr string, a arrival, run int64) sessionOutcome {
	s := lg.streams[a.stream]
	so := sessionOutcome{arrival: a, records: len(s.Misses)}
	req := server.Request{Label: s.label()}
	if a.prefetch {
		c := pfConfig
		req.Prefetch = &c
		req.Label += "/pf"
	}
	root := lg.rec.begin("bench.session", 0, run)
	defer lg.rec.end(root, int64(len(s.Misses)))
	id := lg.rec.begin("server.DialResilient", root, run)
	rs, err := server.DialResilient(addr, s.cpus(), req, server.RetryPolicy{Seed: lg.seed + run})
	lg.rec.end(id, 0)
	if err != nil {
		so.err = fmt.Errorf("dial: %w", err)
		return so
	}
	defer rs.Close()
	id = lg.rec.begin("server.ResilientSession.Append", root, run)
	for i := range s.Misses {
		rs.Append(s.Misses[i])
	}
	lg.rec.end(id, int64(len(s.Misses)))
	id = lg.rec.begin("server.ResilientSession.Result", root, run)
	rs.Finish(s.Header)
	res, err := rs.Result()
	lg.rec.end(id, 0)
	st := rs.Stats()
	switch {
	case err != nil:
		so.err = fmt.Errorf("%s: %w", req.Label, err)
	case st.Dials != 1 || st.Transport+st.Busy+st.Draining+st.StreamErrors+st.Resumes+st.Restarts > 0:
		so.err = fmt.Errorf("%s: session needed recovery %+v", req.Label, st)
	case !reflect.DeepEqual(res, lg.refs[a.refKey()]):
		so.err = fmt.Errorf("%s: result differs from the in-process reference", req.Label)
	}
	return so
}

// latencies of the successful sessions, and of all of them with the
// failed ones counted as +Inf.
func (p phase) latencies() (ok samples, all samples) {
	for _, so := range p.out {
		if so.err != nil {
			all = append(all, math.Inf(1))
			continue
		}
		ok.add(so.latency)
		all.add(so.latency)
	}
	return ok, all
}

// meets reports whether a ladder step holds the limit: at most 1% of its
// sessions (failures included) above p99LimitMs, and no growing queue —
// the last fifth of arrivals waited on average no longer than the first
// fifth plus a quarter of the limit. It also describes the step.
func (p phase) meets() (bool, string) {
	_, all := p.latencies()
	over := 0
	for _, v := range all {
		if v > p99LimitMs {
			over++
		}
	}
	fifth := len(p.out) / 5
	var first, last float64
	for i := range fifth {
		first += p.out[i].wait.Seconds()
		last += p.out[len(p.out)-1-i].wait.Seconds()
	}
	growth := (last - first) / float64(fifth) * 1e3
	ok := over <= len(all)/100 && growth <= p99LimitMs/4
	return ok, fmt.Sprintf("p99 %.1f ms, %d of %d over the limit, queue wait growth %.1f ms", all.quantile(0.99), over, len(all), growth)
}

// ingestState is one set-up's product.
type ingestState struct {
	fleet   *fleet
	lg      *loadgen
	streams []*stream
}

// ingestSetup records the streams and serves them (see serve).
func ingestSetup(cfg config, dir string) (*ingestState, error) {
	streams, err := recordStreams(cfg.seed, streamTargetFor(cfg), runtime.NumCPU())
	if err != nil {
		return nil, err
	}
	return serve(cfg, dir, streams)
}

// serve computes the streams' references, starts a fleet and warms it
// with one session of every stream.
func serve(cfg config, dir string, streams []*stream) (*ingestState, error) {
	refs := references(streams)
	f, err := startFleet(dir)
	if err != nil {
		return nil, err
	}
	lg := &loadgen{streams: streams, refs: refs, workers: runtime.NumCPU(), seed: cfg.seed}
	for i := range streams {
		if so := lg.session(f.gw.Addr().String(), arrival{spec: spec{stream: i}}, int64(i)); so.err != nil {
			f.close()
			return nil, fmt.Errorf("warm-up: %w", so.err)
		}
	}
	return &ingestState{fleet: f, lg: lg, streams: streams}, nil
}

func streamTargetFor(cfg config) int {
	if cfg.small {
		return 1000
	}
	return streamTarget
}

func runIngest(cfg config) (*outcome, error) {
	o := newOutcome()
	var setups []float64
	var st *ingestState
	for i := range setupRepeats {
		if st != nil {
			st.fleet.close() // only the last set-up's fleet is measured
		}
		runtime.GC() // each set-up starts without the previous one's garbage
		start := time.Now()
		s, err := ingestSetup(cfg, filepath.Join(cfg.workDir, fmt.Sprintf("setup%d", i)))
		if err != nil {
			return nil, fmt.Errorf("ingest set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		st = s
	}
	if cfg.corrupt {
		for i, r := range st.lg.refs {
			st.lg.refs[i] = corrupted(r)
		}
	}
	if cfg.trace {
		return o, ingestTraced(cfg, st, o)
	}
	o.set("setup_s", median(setups), "s", fmt.Sprintf("median of %d", setupRepeats))
	mem := startMemPeak()

	rng := rand.New(rand.NewSource(cfg.seed))
	n := nominalSessions
	if cfg.small {
		n = 40
	}
	nom, segs, err := st.lg.segmented(o, cfg, st.fleet, len(st.streams), poisson(rng, nominalRate, n, len(st.streams)), nil)
	if err != nil {
		return nil, err
	}
	okLat, _ := nom.latencies()
	var records int64
	for _, so := range nom.out {
		if so.err == nil {
			records += int64(so.records)
		}
	}
	// The median and p90 are each the median over the segments of the
	// segment's own percentile, so a few seconds of contention from
	// outside the benchmark move them little. p99 needs every sample.
	var p50s, p90s []float64
	for _, sg := range segs {
		p50s = append(p50s, sg.quantile(0.5))
		p90s = append(p90s, sg.quantile(0.9))
	}
	o.set("latency_p50_ms", median(p50s), "ms", fmt.Sprintf("median over %d segments of %s", len(segs), segs[0].note(0.5)))
	o.set("latency_p90_ms", median(p90s), "ms", fmt.Sprintf("median over %d segments of %s", len(segs), segs[0].note(0.9)))
	o.set("latency_p99_ms", okLat.quantile(0.99), "ms", okLat.note(0.99))
	o.set("records_per_s", float64(records)/nom.wall.Seconds(), "1/s",
		fmt.Sprintf("at the nominal %.0f sessions/s", nominalRate))

	// The ladder, anchored on the fleet's saturation throughput: probe
	// the highest step below 85% of it, then walk up while steps meet the
	// limit, or down until one does. Every probe runs on a fresh fleet, so
	// each starts with empty stores: an archive commit rewrites the whole
	// manifest, so a fleet's capacity falls as its stores fill, and steps
	// sharing one fleet would measure a moving target.
	steps := stepSessions
	if cfg.small {
		steps = 30
	}
	probe := func(name string, sched []arrival) (phase, error) {
		f, err := startFleet(filepath.Join(cfg.workDir, name))
		if err != nil {
			return phase{}, err
		}
		defer f.close()
		return st.lg.count(o, f, 0, sched), nil
	}
	sat, err := probe("saturation", poisson(rng, math.Inf(1), steps, len(st.streams)))
	if err != nil {
		return nil, err
	}
	capacity := float64(steps) / sat.wall.Seconds()
	fmt.Printf("# saturation throughput %.1f sessions/s (%d back-to-back sessions)\n", capacity, steps)
	rate := func(k int) float64 { return ladderBase * math.Pow(ladderRatio, float64(k)) }
	meets := map[int]bool{}
	try := func(k int) (bool, error) {
		p, err := probe(fmt.Sprintf("step%d", k), poisson(rng, rate(k), steps, len(st.streams)))
		if err != nil {
			return false, err
		}
		ok, desc := p.meets()
		fmt.Printf("# ladder step %d (%.1f sessions/s): %s: meets=%v\n", k, rate(k), desc, ok)
		meets[k] = ok
		return ok, nil
	}
	k := min(max(int(math.Floor(math.Log(0.85*capacity/ladderBase)/math.Log(ladderRatio))), 0), ladderSteps-1)
	ok, err := try(k)
	if err != nil {
		return nil, err
	}
	for ok && k+1 < ladderSteps && len(meets) < maxProbes {
		if ok, err = try(k + 1); err != nil {
			return nil, err
		}
		if ok {
			k++
		}
	}
	for !meets[k] && k >= 0 && len(meets) < maxProbes {
		if k--; k >= 0 {
			if _, err := try(k); err != nil {
				return nil, err
			}
		}
	}
	if !meets[k] {
		k = -1 // the walk down ran out of probes
	}
	lo := k
	probes := len(meets)
	sustained := 0.0
	if lo >= 0 {
		sustained = ladderBase * math.Pow(ladderRatio, float64(lo))
	}
	o.set("sustained_sps", sustained, "1/s", fmt.Sprintf("ladder step %d of %d after %d probes", lo, ladderSteps, probes))
	o.set("peak_rss_mb", mem.stop(), "MiB", "peak retained memory of the measured phase")
	return o, nil
}

// segmented runs sched open-loop in segments of segmentSessions: the
// first on f, whose stores hold base archives, and each later one on a
// fresh fleet, keeping the schedule's gaps. An archive commit re-reads
// and rewrites the whole manifest, so one fleet serving every session
// would slow down as its stores fill and drift toward saturation within
// the phase; short-lived fleets keep the offered load steady. f is
// closed on return; visit, when set, sees each fleet before it closes.
// The result holds every session; segs holds each segment's successful
// latencies.
func (lg *loadgen) segmented(o *outcome, cfg config, f *fleet, base int, sched []arrival, visit func(*fleet) error) (all phase, segs []samples, err error) {
	for lo := 0; lo < len(sched); lo += segmentSessions {
		seg := slices.Clone(sched[lo:min(lo+segmentSessions, len(sched))])
		if lo > 0 {
			if f, err = startFleet(filepath.Join(cfg.workDir, fmt.Sprintf("segment%d", lo))); err != nil {
				return phase{}, nil, err
			}
			base = 0
			shift := sched[lo-1].due
			for i := range seg {
				seg[i].due -= shift
			}
		}
		p := lg.count(o, f, base, seg)
		if visit != nil {
			if err := visit(f); err != nil {
				f.close()
				return phase{}, nil, err
			}
		}
		f.close()
		all.out = append(all.out, p.out...)
		all.backlogMax = max(all.backlogMax, p.backlogMax)
		all.wall += p.wall
		ok, _ := p.latencies()
		segs = append(segs, ok)
	}
	return all, segs, nil
}

// count runs sched through f's gateway, counts every session in o, and
// checks that f's stores hold one archive per successful session beyond
// the base they held before.
func (lg *loadgen) count(o *outcome, f *fleet, base int, sched []arrival) phase {
	p := lg.run(f.gw.Addr().String(), sched)
	want := base
	for _, so := range p.out {
		o.Attempted++
		if so.err != nil {
			o.fail(so.err.Error())
		} else {
			want++
		}
	}
	if got, err := f.archived(); err != nil {
		o.fail(fmt.Sprintf("reading manifests: %v", err))
	} else if got != want {
		o.fail(fmt.Sprintf("%d manifest entries for %d successful sessions", got, want))
	}
	return p
}

// serverCounters reads the ok and failed session totals from a server's
// metrics registry.
func serverCounters(s *server.Server) (ok, failed float64, err error) {
	var b strings.Builder
	if err := s.Registry().WritePrometheus(&b); err != nil {
		return 0, 0, err
	}
	fams, err := obs.ParseText(strings.NewReader(b.String()))
	if err != nil {
		return 0, 0, err
	}
	var total float64
	for _, f := range fams {
		for _, smp := range f.Samples {
			switch smp.Name {
			case "tsserved_sessions_total":
				total += smp.Value
			case "tsserved_sessions_failed_total":
				failed += smp.Value
			}
		}
	}
	return total - failed, failed, nil
}

// ingestTraced is the traced ingest run. Serial passes of every stream,
// untraced and traced in turn, give the overhead and the unattributed
// share;
// a traced nominal-rate phase through the gateway gives the server and
// generator metrics; the same schedule sent straight to one backend
// gives the gateway hop; direct store commits, and replays of the
// streams through the lower layers, give the rest.
func ingestTraced(cfg config, st *ingestState, o *outcome) error {
	addr := st.fleet.gw.Addr().String()
	serial := serialPass(len(st.streams))
	runSerial := func() (time.Duration, error) {
		t0 := time.Now()
		for i, a := range serial {
			if so := st.lg.session(addr, a, int64(i)); so.err != nil {
				return 0, so.err
			}
		}
		return time.Since(t0), nil
	}
	// Alternate untraced and traced serial passes; the spans of the
	// traced ones give the unattributed share.
	rec := newRecorder()
	var untraced, traced samples
	var from, to int64
	for range 3 {
		st.lg.rec = nil
		d, err := runSerial()
		if err != nil {
			return err
		}
		untraced.add(d)
		st.lg.rec = rec
		from = rec.now()
		if d, err = runSerial(); err != nil {
			return err
		}
		to = rec.now()
		traced.add(d)
	}
	o.set("bench.trace_overhead_frac", traced.quantile(0.5)/untraced.quantile(0.5)-1, "frac",
		fmt.Sprintf("median serial pass of %d sessions traced %.1f ms vs untraced %.1f ms", len(serial), traced.quantile(0.5), untraced.quantile(0.5)))
	o.set("bench.unattributed_frac", rec.ledger().unattributed(from, to), "frac", "last traced serial pass")

	if err := servedLayers(cfg, st, o, rec, 6*len(serial)+len(st.streams)); err != nil {
		return err
	}
	tsNs := replaySessions(o, rec, st.streams)
	replayCore(o, rec, st.streams, tsNs)
	if err := replayWire(o, rec, st.streams); err != nil {
		return err
	}
	unused(o, "workload", "store.open_ms_p50", "store.stream_ns_per_decoded", "store.delivered_frac", "store.bytes")
	return rec.write(cfg.spansPath)
}

// servedLayers measures the serving tier's layers: a traced 1010-session
// phase at the nominal rate through st's fleet (whose stores hold base
// archives), segmented as in the untraced ingest run, for the server and
// generator metrics; paired serial sessions for the gateway hop; direct
// store commits; and the prefetcher replayed over the streams.
func servedLayers(cfg config, st *ingestState, o *outcome, rec *recorder, base int) error {
	st.lg.rec = rec
	rng := rand.New(rand.NewSource(cfg.seed))
	n := nominalSessions
	if cfg.small {
		n = 40
	}
	from := rec.now()
	var okTotal, failedTotal, rerouted, skew float64
	visit := func(f *fleet) error {
		for _, srv := range f.servers {
			ok, failed, err := serverCounters(srv)
			if err != nil {
				return err
			}
			okTotal += ok
			failedTotal += failed
		}
		fs := f.gw.Stats()
		rerouted += float64(fs.ReroutedSessions)
		lo, hi := math.Inf(1), 0.0
		for _, b := range fs.Backends {
			lo = min(lo, float64(b.RoutedSessions))
			hi = max(hi, float64(b.RoutedSessions))
		}
		skew = max(skew, hi/lo)
		return nil
	}
	viaGw, _, err := st.lg.segmented(o, cfg, st.fleet, base, poisson(rng, nominalRate, n, len(st.streams)), visit)
	if err != nil {
		return err
	}
	l := rec.ledger().window(from, rec.now())
	st.lg.rec = nil
	hop, err := gatewayHop(cfg, st.lg)
	if err != nil {
		return err
	}
	dial := l.durations("server.DialResilient")
	stream := l.durations("server.ResilientSession.Append")
	wait := l.durations("server.ResilientSession.Result")
	o.set("server.dial_ms_p50", dial.quantile(0.5), "ms", dial.note(0.5))
	o.set("server.stream_ms_p50", stream.quantile(0.5), "ms", stream.note(0.5))
	o.set("server.result_wait_ms_p50", wait.quantile(0.5), "ms", wait.note(0.5))
	o.set("server.result_wait_ms_p99", wait.quantile(0.99), "ms", wait.note(0.99))
	o.set("server.sessions_ok", okTotal, "count", "every backend of the traced phase, earlier sessions on its first fleet included")
	o.set("server.sessions_failed", failedTotal, "count", "")
	o.set("gateway.hop_ms_p50", hop.quantile(0.5), "ms", "paired serial sessions via gateway minus direct, "+hop.note(0.5))
	o.set("gateway.rerouted", rerouted, "count", "expected 0")
	o.set("gateway.backend_skew", skew, "ratio", "max/min sessions routed per backend, worst fleet")
	var late samples
	for _, so := range viaGw.out {
		late.add(so.late)
	}
	o.set("loadgen.late_ms_p99", late.quantile(0.99), "ms", late.note(0.99))
	o.set("loadgen.backlog_max", float64(viaGw.backlogMax), "count", "")

	if err := measureCommits(o, rec, filepath.Join(cfg.workDir, "commits"), st.streams); err != nil {
		return err
	}
	replayPrefetch(o, rec, st.streams, pfConfig)
	return nil
}

// serialPass is one session of every (stream, prefetcher) pair.
func serialPass(streams int) []arrival {
	out := make([]arrival, 0, 2*streams)
	for i := range streams {
		for _, pf := range []bool{false, true} {
			out = append(out, arrival{spec: spec{i, pf}})
		}
	}
	return out
}

// gatewayHop sends a serial pass one session at a time through a fresh
// fleet's gateway and then straight to that fleet's first backend,
// three times over, and returns each session's latency difference.
func gatewayHop(cfg config, lg *loadgen) (samples, error) {
	serial := serialPass(len(lg.streams))
	f, err := startFleet(filepath.Join(cfg.workDir, "hop"))
	if err != nil {
		return nil, err
	}
	defer f.close()
	var diffs samples
	for range 3 {
		for i, a := range serial {
			var d [2]time.Duration
			for k, addr := range []string{f.gw.Addr().String(), f.servers[0].Addr().String()} {
				t0 := time.Now()
				if so := lg.session(addr, a, int64(i)); so.err != nil {
					return nil, so.err
				}
				d[k] = time.Since(t0)
			}
			diffs.add(d[0] - d[1])
		}
	}
	return diffs, nil
}

// measureCommits times Writer AppendBatch/Finish/Commit of the streams,
// six times over, into a fresh store: 108 commits, as many archives as
// a nominal-rate segment leaves across its fleet's two stores.
func measureCommits(o *outcome, rec *recorder, dir string, streams []*stream) error {
	s, _, err := store.Open(dir)
	if err != nil {
		return err
	}
	var commits samples
	for rep := range 6 {
		for i, str := range streams {
			run := int64(rep*len(streams) + i)
			w, err := s.NewWriter(store.Meta{Label: str.label()}, str.cpus())
			if err != nil {
				return err
			}
			id := rec.begin("store.Writer.AppendBatch", 0, run)
			w.AppendBatch(str.Misses)
			w.Finish(str.Header)
			rec.end(id, int64(len(str.Misses)))
			id = rec.begin("store.Writer.Commit", 0, run)
			t0 := time.Now()
			_, err = w.Commit()
			commits.add(time.Since(t0))
			rec.end(id, 0)
			if err != nil {
				return err
			}
		}
	}
	o.set("store.commit_ms_p50", commits.quantile(0.5), "ms", commits.note(0.5))
	o.set("store.commit_ms_p99", commits.quantile(0.99), "ms", commits.note(0.99))
	o.set("store.manifest_entries", float64(len(s.Entries())), "count", "entries after the commits")
	return nil
}
