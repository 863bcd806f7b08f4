package main

import (
	"bufio"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"sync"
	"time"
)

// span is one call from the benchmark into a layer. Name is
// "<layer>.<call>", the layer being the repository module called (for
// example "wire.Encoder.AppendBatch"); spans named "bench.*" are the
// benchmark's own structure (one request, one session) and belong to no
// layer. Run groups the spans of one request or session.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Run    int64  `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Items is the work the call did, in the call's own unit (records,
	// symbols), where one span covers a batch of per-record calls.
	Items int64 `json:"items,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, so untraced runs pass nil and pay one nil check per
// call.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its ID (0 on a nil recorder).
func (r *recorder) begin(name string, parent int32, run int64) int32 {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	id := int32(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Run: run, Name: name, Start: now})
	r.mu.Unlock()
	return id
}

// end closes span id, crediting it with items units of work.
func (r *recorder) end(id int32, items int64) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.spans[id-1].Items = items
	r.mu.Unlock()
}

// now is the recorder's clock, for marking phase boundaries.
func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ledger answers per-layer questions over a finished recording.
type ledger struct {
	spans []span
	// all is the whole recording, indexed by span ID - 1, and children
	// lists each span's child IDs.
	all      []span
	children map[int32][]int32
}

func (r *recorder) ledger() *ledger {
	l := &ledger{spans: r.spans, all: r.spans, children: map[int32][]int32{}}
	for _, s := range r.spans {
		if s.Parent != 0 {
			l.children[s.Parent] = append(l.children[s.Parent], s.ID)
		}
	}
	return l
}

// window is the ledger of the spans that start within [from, to).
func (l *ledger) window(from, to int64) *ledger {
	w := &ledger{all: l.all, children: l.children}
	for _, s := range l.spans {
		if s.Start >= from && s.Start < to {
			w.spans = append(w.spans, s)
		}
	}
	return w
}

// match reports whether a span's name is name or starts with name+".".
func match(s span, name string) bool {
	return s.Name == name || strings.HasPrefix(s.Name, name+".")
}

// total is the summed duration (ns) and work items of the spans matching
// name.
func (l *ledger) total(name string) (ns, items int64, n int) {
	for _, s := range l.spans {
		if match(s, name) {
			ns += s.dur()
			items += s.Items
			n++
		}
	}
	return ns, items, n
}

// durations is the duration of every span matching name, as latencies.
func (l *ledger) durations(name string) samples {
	var out samples
	for _, s := range l.spans {
		if match(s, name) {
			out.add(time.Duration(s.dur()))
		}
	}
	return out
}

// self is the summed self time (ns) of the spans matching name: each
// span's duration minus the part of it its child spans cover.
func (l *ledger) self(name string) int64 {
	var ns int64
	for _, s := range l.spans {
		if !match(s, name) {
			continue
		}
		var kids [][2]int64
		for _, c := range l.children[s.ID] {
			k := l.all[c-1]
			kids = append(kids, [2]int64{k.Start, k.End})
		}
		ns += s.dur() - covered(kids, s.Start, s.End)
	}
	return ns
}

// unattributed is the share of [from, to) that no layer span covers.
func (l *ledger) unattributed(from, to int64) float64 {
	if to <= from {
		return 0
	}
	var iv [][2]int64
	for _, s := range l.spans {
		if s.layer() != "bench" {
			iv = append(iv, [2]int64{s.Start, s.End})
		}
	}
	return 1 - float64(covered(iv, from, to))/float64(to-from)
}

// covered is the length of the union of intervals, clipped to [from, to).
func covered(iv [][2]int64, from, to int64) int64 {
	slices.SortFunc(iv, func(a, b [2]int64) int {
		switch {
		case a[0] < b[0]:
			return -1
		case a[0] > b[0]:
			return 1
		}
		return 0
	})
	var sum int64
	cur := from
	for _, v := range iv {
		lo, hi := max(v[0], cur), min(v[1], to)
		if hi > lo {
			sum += hi - lo
			cur = hi
		}
	}
	return sum
}
