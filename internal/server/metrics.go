package server

import (
	"time"

	"repro/internal/obs"
)

// serverMetrics is the server's observability surface: the owned
// instruments incremented on session paths, plus scrape-time funcs over
// the counters and live state the server already keeps (no mirrored
// state — a scrape reads the same atomics Stats does).
type serverMetrics struct {
	reg *obs.Registry

	// bytesRead counts raw bytes off ingest connections (armed on every
	// idleConn). Counted at the transport, so protocol overhead and
	// half-finished streams are included — it is the number a network
	// dashboard wants, not a records-derived estimate.
	bytesRead *obs.Counter
	// failedByCode fans the failed-session total out by protocol error
	// code (busy, draining, too_large, bad_request, resume_unknown,
	// stream), so overload shedding is distinguishable from corrupt
	// streams at a glance.
	failedByCode *obs.CounterVec
	// closeSeconds is the session wall-clock at close, labeled by
	// outcome (done, failed, parked) — the latency distribution of the
	// ingest path as clients experience it.
	closeSeconds *obs.HistogramVec
}

// newServerMetrics registers the tsserved_* families against s. Every
// gauge and most counters are scrape-time funcs over state the server
// already maintains; only the instruments with no existing source
// (bytes, per-code failures, close latency) are owned.
func newServerMetrics(s *Server) *serverMetrics {
	reg := obs.NewRegistry()
	m := &serverMetrics{reg: reg}

	reg.CounterFunc("tsserved_sessions_total",
		"Sessions accepted (excluding health probes).",
		func() float64 { return float64(s.totalSessions.Load()) })
	reg.CounterFunc("tsserved_sessions_shed_total",
		"Sessions shed by overload control (queue full or slot-wait timeout).",
		func() float64 { return float64(s.totalShed.Load()) })
	reg.CounterFunc("tsserved_sessions_parked_total",
		"Interrupted resumable sessions whose analyzer state was parked.",
		func() float64 { return float64(s.totalParked.Load()) })
	reg.CounterFunc("tsserved_sessions_resumed_total",
		"Parked sessions successfully resumed by their client.",
		func() float64 { return float64(s.totalResumed.Load()) })
	reg.CounterFunc("tsserved_sessions_expired_total",
		"Parked sessions discarded because their grace window lapsed.",
		func() float64 { return float64(s.totalExpired.Load()) })
	reg.CounterFunc("tsserved_records_total",
		"Trace records ingested by completed streams.",
		func() float64 { return float64(s.totalRecords.Load()) })

	reg.GaugeFunc("tsserved_sessions_active",
		"Sessions currently receiving (each holds one analyzer slot).",
		func() float64 { return float64(len(s.slots)) })
	reg.GaugeFunc("tsserved_sessions_queued",
		"Sessions currently waiting for an analyzer slot.",
		func() float64 { return float64(s.queued.Load()) })
	reg.GaugeFunc("tsserved_sessions_parked",
		"Sessions currently parked awaiting resumption.",
		func() float64 { return float64(s.parks.Len()) })
	reg.GaugeFunc("tsserved_analyzer_slots",
		"Size of the analyzer pool (Config.MaxSessions).",
		func() float64 { return float64(cap(s.slots)) })
	reg.GaugeFunc("tsserved_analyzer_slots_in_use",
		"Analyzer slots currently bound to receiving sessions.",
		func() float64 { return float64(len(s.slots)) })
	reg.GaugeFunc("tsserved_uptime_seconds",
		"Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })

	m.bytesRead = reg.Counter("tsserved_ingest_bytes_total",
		"Bytes read from ingest connections (transport level, all sessions).")
	m.failedByCode = reg.CounterVec("tsserved_sessions_failed_total",
		"Failed sessions by protocol error code.", "code")
	m.closeSeconds = reg.HistogramVec("tsserved_session_close_seconds",
		"Session wall-clock from accept to close, by outcome.",
		nil, "outcome")
	return m
}

// Registry exposes the server's metric families for mounting on a
// scrape mux (obs.NewMux).
func (s *Server) Registry() *obs.Registry { return s.metrics.reg }
