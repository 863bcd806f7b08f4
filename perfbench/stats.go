package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// samples is a set of latencies in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d)/1e6) }

// quantile is the q-quantile by linear interpolation between order
// statistics (0 for an empty set).
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	v := slices.Clone([]float64(s))
	slices.Sort(v)
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(v)-1)
	return v[lo] + (pos-float64(lo))*(v[hi]-v[lo])
}

// beyond is how many samples lie above the q-quantile's rank.
func (s samples) beyond(q float64) int { return int(math.Floor(float64(len(s)) * (1 - q))) }

// note states the sample count behind a percentile, and says so when
// fewer than ten samples lie beyond it.
func (s samples) note(q float64) string {
	n := fmt.Sprintf("n=%d, %d beyond", len(s), s.beyond(q))
	if s.beyond(q) < 10 {
		n += "; fewer than 10 beyond: near the maximum, not an estimate"
	}
	return n
}

// setLatency reports the percentiles of one latency sample set.
func (o *outcome) setLatency(s samples) {
	o.set("latency_p50_ms", s.quantile(0.50), "ms", s.note(0.50))
	o.set("latency_p90_ms", s.quantile(0.90), "ms", s.note(0.90))
	o.set("latency_p99_ms", s.quantile(0.99), "ms", s.note(0.99))
}

// median of a few set-up timings.
func median(v []float64) float64 { return samples(v).quantile(0.5) }

// setupRepeats is how many times a run performs its set-up; setup_s is
// the median, and the last set-up's state is the one measured.
const setupRepeats = 3
