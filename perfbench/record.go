package main

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/trace"
	"repro/internal/workload"
)

// stream is one recorded miss stream: one context of one application,
// held in memory so the measured phase replays it with no simulator work.
type stream struct {
	App     workload.App
	Machine workload.MachineKind
	Intra   bool
	Seed    int64
	Misses  []trace.Miss
	Header  trace.Header
	Symbols *trace.SymbolTable
}

// label names the stream as the server and the store see it.
func (s *stream) label() string {
	l := strings.ToLower(s.App.String()) + "/" + s.Machine.String()
	if s.Intra {
		l += "/intra"
	}
	return l
}

func (s *stream) cpus() int { return s.Machine.CPUCount() }

// intraShare is each app's intra-chip stream length, as a multiple of
// the off-chip target: below the shortest the simulator yielded over 40
// seeds.
var intraShare = map[workload.App]float64{
	workload.Apache: 3.5, workload.Zeus: 2.25, workload.OLTP: 8,
	workload.Qry1: 0.225, workload.Qry2: 0.95, workload.Qry17: 0.65,
}

// recordStreams simulates every application on both machines and keeps
// the 18 context streams (6 apps x multi-chip, single-chip, intra-chip),
// in a fixed order. At most workers simulations run at once.
//
// Each stream is cut to a fixed length: target records off chip, and
// intraShare times target on chip. The seed changes the records but not
// their number, so every seed offers the same volume of work and the
// same heavy-tailed mix of session sizes.
func recordStreams(seed int64, target, workers int) ([]*stream, error) {
	type job struct {
		app     workload.App
		machine workload.MachineKind
		out     []*stream
	}
	var jobs []*job
	for _, app := range workload.Apps() {
		for _, m := range []workload.MachineKind{workload.MultiChip, workload.SingleChip} {
			jobs = append(jobs, &job{app: app, machine: m})
		}
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for _, j := range jobs {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			off := &trace.Trace{}
			var intra *trace.Trace
			var intraSink trace.Sink
			if j.machine == workload.SingleChip {
				intra = &trace.Trace{}
				intraSink = intra
			}
			cfg := workload.Config{App: j.app, Machine: j.machine, Scale: workload.Small, Seed: seed, TargetMisses: target}
			res := workload.RunStream(cfg, off, intraSink)
			j.out = append(j.out, &stream{App: j.app, Machine: j.machine, Seed: seed,
				Misses: off.Misses, Header: headerOf(off), Symbols: res.SymTab})
			if intra != nil {
				j.out = append(j.out, &stream{App: j.app, Machine: j.machine, Intra: true, Seed: seed,
					Misses: intra.Misses, Header: headerOf(intra), Symbols: res.SymTab})
			}
		}()
	}
	wg.Wait()
	var out []*stream
	for _, j := range jobs {
		out = append(out, j.out...)
	}
	for _, s := range out {
		n := target
		if s.Intra {
			n = int(intraShare[s.App] * float64(target))
		}
		if len(s.Misses) == 0 {
			return nil, fmt.Errorf("recording %s: empty stream", s.label())
		}
		if len(s.Misses) <= n {
			continue // a rare short stream is kept whole
		}
		s.Header.Instructions = s.Header.Instructions * uint64(n) / uint64(len(s.Misses))
		s.Header.Misses = n
		s.Misses = s.Misses[:n]
	}
	return out, nil
}

func headerOf(t *trace.Trace) trace.Header {
	return trace.Header{Misses: t.Len(), Instructions: t.Instructions, CPUs: t.CPUs}
}
