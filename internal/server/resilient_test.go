package server_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	tempstream "repro"
	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/wire"
)

// chaosPolicy builds a retry policy whose every dial is wrapped with the
// given fault spec, each connection drawing its own seeded fault
// schedule. Backoffs are shrunk so tests recover in milliseconds, and the
// replay ring is kept small: an injected reset RSTs the connection, which
// discards whatever the server's kernel had buffered but not yet decoded,
// so any bytes the client ran ahead by are lost with the connection. A
// two-frame window (~32 KB) keeps the client's unacked in-flight data
// below the mean reset distance; an unbounded window would let the whole
// stream race into socket buffers and die undelivered on every attempt.
func chaosPolicy(spec faultnet.Spec, connIdx *atomic.Int64, seed int64) server.RetryPolicy {
	return server.RetryPolicy{
		BaseDelay:   5 * time.Millisecond,
		MaxDelay:    50 * time.Millisecond,
		MaxAttempts: 25,
		RingFrames:  2,
		Seed:        seed,
		Dial: func(addr string) (net.Conn, error) {
			c, err := net.DialTimeout("tcp", addr, 5*time.Second)
			if err != nil {
				return nil, err
			}
			return faultnet.WrapConn(c, spec, connIdx.Add(1)), nil
		},
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestResilientEquivalence is the tentpole's acceptance criterion: under
// seeded fault injection — connection resets at byte offsets, in-flight
// bit flips, fragmented writes — a resilient session must complete with a
// SessionResult byte-identical (every digest, every scalar) to the
// fault-free run of the same stream, by resuming the same server-side
// incremental analysis across reconnects.
func TestResilientEquivalence(t *testing.T) {
	baseAnalyzers := tempstream.AnalyzersInFlight()
	srv := startServer(t, server.Config{ResumeGrace: 10 * time.Second})
	addr := srv.Addr().String()
	misses := synthMisses(30000, 4, 42)
	hdr := trace.Header{Misses: len(misses), Instructions: uint64(len(misses)) * 100, CPUs: 4}
	req := server.Request{Label: "chaos", Analysis: core.Options{MaxMisses: 8000}}
	want := feedSession(t, addr, req, misses, 4)

	// ~110 KB of wire per session against a 40 KB mean reset distance:
	// every connection's first reset lands within [1, 80 KB) — inside the
	// stream, so each session is interrupted at least once — while staying
	// well above the ~16 KB frame size, so a reconnect's replay can cross
	// (a mean reset gap below one frame would make atomic frame delivery
	// itself improbable, which no retry protocol can overcome).
	spec := faultnet.Spec{Seed: 99, ResetEvery: 40_000, CorruptEvery: 60_000, PartialWrites: true}
	var connIdx atomic.Int64
	var total server.RetryStats
	for i := 0; i < 3; i++ {
		rs, err := server.DialResilient(addr, 4, req, chaosPolicy(spec, &connIdx, int64(i+1)))
		if err != nil {
			t.Fatalf("session %d: dial under chaos: %v", i, err)
		}
		for _, m := range misses {
			rs.Append(m)
		}
		rs.Finish(hdr)
		got, err := rs.Result()
		if err != nil {
			t.Fatalf("session %d failed under chaos: %v (stats %+v)", i, err, rs.Stats())
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("session %d: chaos result differs from fault-free run\n got: %+v\nwant: %+v", i, got, want)
		}
		st := rs.Stats()
		t.Logf("session %d: %+v", i, st)
		total.Add(st)
	}
	if total.Resumes+total.Restarts == 0 {
		t.Errorf("no session ever resumed or restarted — fault injection exercised nothing: %+v", total)
	}
	if total.Transport == 0 {
		t.Errorf("no transport fault recorded under reset injection: %+v", total)
	}
	// Every recovery consumed or re-parked its analyzer: nothing strands.
	waitFor(t, "analyzer pool to rebalance", func() bool {
		return tempstream.AnalyzersInFlight() == baseAnalyzers
	})
}

// corruptPrefixOnce flips one bit in the first stream prefix (magic +
// header frame) that crosses it, and nothing else. The server's Meta
// check fails on a FRESH session — which parks nothing — so the client's
// reconnect-with-token draws resume_unknown and must degrade to a clean
// restart from frame zero.
type corruptPrefixOnce struct {
	net.Conn
	done *atomic.Bool
}

func (c *corruptPrefixOnce) Write(p []byte) (int, error) {
	if !c.done.Load() && bytes.HasPrefix(p, []byte("TSW1")) {
		c.done.Store(true)
		buf := append([]byte(nil), p...)
		buf[len(buf)-1] ^= 0x01 // header frame CRC
		return c.Conn.Write(buf)
	}
	return c.Conn.Write(p)
}

// TestResilientRestartFromScratch forces the resume_unknown degradation
// path: the server fails the first attempt before anything was parked, so
// the token the client presents on reconnect is unknown. Because nothing
// was ever acknowledged (the replay ring still holds the whole stream),
// the session must restart from scratch — invisibly to the caller — and
// the result must match the fault-free run.
func TestResilientRestartFromScratch(t *testing.T) {
	srv := startServer(t, server.Config{})
	addr := srv.Addr().String()
	misses := synthMisses(100, 2, 7)
	hdr := trace.Header{Misses: len(misses), Instructions: uint64(len(misses)) * 100, CPUs: 2}
	want := feedSession(t, addr, server.Request{}, misses, 2)

	var corrupted atomic.Bool
	var dials atomic.Int64
	pol := server.RetryPolicy{
		BaseDelay: 2 * time.Millisecond,
		MaxDelay:  10 * time.Millisecond,
		Dial: func(a string) (net.Conn, error) {
			dials.Add(1)
			c, err := net.Dial("tcp", a)
			if err != nil {
				return nil, err
			}
			return &corruptPrefixOnce{Conn: c, done: &corrupted}, nil
		},
	}
	rs, err := server.DialResilient(addr, 2, server.Request{}, pol)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	for _, m := range misses {
		rs.Append(m)
	}
	rs.Finish(hdr)
	got, err := rs.Result()
	if err != nil {
		t.Fatalf("Result: %v (stats %+v)", err, rs.Stats())
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("restarted session result differs from fault-free run")
	}
	st := rs.Stats()
	if st.Restarts != 1 || st.StreamErrors != 1 || st.Resumes != 0 {
		t.Errorf("stats %+v, want exactly 1 restart, 1 stream error, 0 resumes", st)
	}
	if d := dials.Load(); d != 3 {
		t.Errorf("dials %d, want 3 (corrupt attempt, resume_unknown attempt, clean restart)", d)
	}
}

// frameCapture records each encoder Write separately, so a test can speak
// the wire protocol frame by frame.
type frameCapture struct{ writes [][]byte }

func (f *frameCapture) Write(p []byte) (int, error) {
	f.writes = append(f.writes, append([]byte(nil), p...))
	return len(p), nil
}

// TestResumeParkExpiry drives the park table directly with a raw
// resumable client: an interrupted session's analyzer is parked (visible
// in stats, holding exactly one pool analyzer), and when the grace window
// lapses without a resume the state is discarded and the analyzer goes
// back to the pool — parked state cannot strand analyzers.
func TestResumeParkExpiry(t *testing.T) {
	baseAnalyzers := tempstream.AnalyzersInFlight()
	srv := startServer(t, server.Config{ResumeGrace: 150 * time.Millisecond})
	addr := srv.Addr().String()

	var fc frameCapture
	enc := wire.NewEncoder(&fc, 4)
	for _, m := range synthMisses(5000, 4, 77) {
		enc.Append(m) // flushes one 4096-record data frame; the rest stays pending
	}
	if err := enc.Err(); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if len(fc.writes) != 3 { // magic, header frame, one data frame
		t.Fatalf("captured %d encoder writes, want 3", len(fc.writes))
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	reqLine, _ := json.Marshal(server.Request{Resume: &server.ResumeRequest{}})
	if _, err := conn.Write(append(reqLine, '\n')); err != nil {
		t.Fatalf("request: %v", err)
	}
	br := bufio.NewReader(conn)
	var hello server.Hello
	line, err := br.ReadBytes('\n')
	if err != nil || json.Unmarshal(line, &hello) != nil || hello.Token == "" {
		t.Fatalf("hello line %q: %v", line, err)
	}
	for _, w := range fc.writes {
		if _, err := conn.Write(w); err != nil {
			t.Fatalf("stream: %v", err)
		}
	}
	var ack server.Ack
	line, err = br.ReadBytes('\n')
	if err != nil || json.Unmarshal(line, &ack) != nil || ack.Ack != 1 {
		t.Fatalf("ack line %q: %v", line, err)
	}
	// Die mid-stream at a clean frame boundary: the server must park.
	conn.Close()

	waitFor(t, "session to park", func() bool { return srv.Stats().ParkedSessions == 1 })
	if got := tempstream.AnalyzersInFlight(); got != baseAnalyzers+1 {
		t.Errorf("analyzers in flight while parked = %d, want %d", got, baseAnalyzers+1)
	}
	waitFor(t, "park grace expiry", func() bool {
		st := srv.Stats()
		return st.ExpiredSessions == 1 && st.ParkedSessions == 0
	})
	waitFor(t, "expired park to release its analyzer", func() bool {
		return tempstream.AnalyzersInFlight() == baseAnalyzers
	})
}

// failAfterWrites passes through a fixed number of Writes, then fails
// every later one — a deterministic mid-stream transport death.
type failAfterWrites struct {
	net.Conn
	remaining int
}

func (c *failAfterWrites) Write(p []byte) (int, error) {
	if c.remaining <= 0 {
		return 0, errors.New("injected write failure")
	}
	c.remaining--
	return c.Conn.Write(p)
}

// TestResumeLostTerminal pins the honest-failure boundary: when the
// server's parked state expires AND the client's replay ring has already
// dropped acknowledged frames, neither resume nor restart can
// reconstruct the stream, so the session must fail with ErrResumeLost —
// not retry forever, not return a wrong result.
func TestResumeLostTerminal(t *testing.T) {
	baseAnalyzers := tempstream.AnalyzersInFlight()
	srv := startServer(t, server.Config{ResumeGrace: 50 * time.Millisecond})
	addr := srv.Addr().String()

	first := true
	pol := server.RetryPolicy{
		// The backoff's minimum sleep (BaseDelay/2 = 200ms) comfortably
		// out-waits the 50ms park grace, so the reconnect finds it gone.
		BaseDelay:   400 * time.Millisecond,
		MaxDelay:    400 * time.Millisecond,
		MaxAttempts: 3,
		// RingFrames=1 forces an ack (and the drop of frame 0 from the
		// ring) before frame 1 may even be enqueued.
		RingFrames: 1,
		Dial: func(a string) (net.Conn, error) {
			c, err := net.Dial("tcp", a)
			if err != nil {
				return nil, err
			}
			if first {
				first = false
				// request + prefix + frame 0 pass; frame 1 dies.
				return &failAfterWrites{Conn: c, remaining: 3}, nil
			}
			return c, nil
		},
	}
	rs, err := server.DialResilient(addr, 4, server.Request{}, pol)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	misses := synthMisses(2*4096, 4, 13)
	for _, m := range misses {
		rs.Append(m)
	}
	rs.Finish(trace.Header{Misses: len(misses), Instructions: 1, CPUs: 4})
	_, err = rs.Result()
	if !errors.Is(err, server.ErrResumeLost) {
		t.Fatalf("Result err = %v (stats %+v), want ErrResumeLost", err, rs.Stats())
	}
	if st := rs.Stats(); st.ResumeLost != 1 {
		t.Errorf("stats %+v, want exactly one resume_lost", st)
	}
	waitFor(t, "expired park to release its analyzer", func() bool {
		st := srv.Stats()
		return st.ExpiredSessions == 1 && tempstream.AnalyzersInFlight() == baseAnalyzers
	})
}

// TestServerExplicitShed checks the overload path: with the slot held and
// the queue full, a new arrival is refused immediately with the
// machine-readable busy code and a retry hint — it does not wait out the
// queue timeout to learn the server is saturated.
func TestServerExplicitShed(t *testing.T) {
	srv := startServer(t, server.Config{
		MaxSessions: 1,
		MaxQueue:    1,
		// Generous: the queued session must still be waiting when the
		// holder releases, even under the race detector's slowdown — the
		// shed under test is the queue-full refusal, not this timeout.
		QueueTimeout: 30 * time.Second,
		RetryHint:    250 * time.Millisecond,
	})
	addr := srv.Addr().String()

	hold, err := server.DialSession(addr, 2, server.Request{Label: "hold"})
	if err != nil {
		t.Fatalf("dial hold: %v", err)
	}
	defer hold.Close()
	hold.Append(trace.Miss{})
	waitFor(t, "holder to take the slot", func() bool { return srv.Stats().ActiveSessions == 1 })

	queued, err := server.DialSession(addr, 2, server.Request{Label: "queued"})
	if err != nil {
		t.Fatalf("dial queued: %v", err)
	}
	defer queued.Close()
	queued.Append(trace.Miss{})
	waitFor(t, "second session to queue", func() bool { return srv.Stats().QueuedSessions >= 1 })

	// Third arrival: must be shed with code busy and a hint. (If it races
	// the second session into the queue it instead sheds on the queue
	// timeout — same code, same hint, bounded by QueueTimeout.)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial shed probe: %v", err)
	}
	defer conn.Close()
	start := time.Now()
	conn.Write([]byte("{}\n"))
	line, err := bufio.NewReader(conn).ReadBytes('\n')
	if err != nil {
		t.Fatalf("shed probe response: %v", err)
	}
	var resp server.Response
	if err := json.Unmarshal(line, &resp); err != nil {
		t.Fatalf("parsing shed response %q: %v", line, err)
	}
	if resp.Code != server.CodeBusy {
		t.Errorf("shed response code %q, want %q (response %q)", resp.Code, server.CodeBusy, line)
	}
	if resp.RetryAfterMS != 250 {
		t.Errorf("shed retry_after_ms = %d, want 250", resp.RetryAfterMS)
	}
	if !resp.Code.Retryable() {
		t.Errorf("busy must classify as retryable")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("shed took %v, want prompt refusal", elapsed)
	}
	if st := srv.Stats(); st.ShedSessions < 1 {
		t.Errorf("shed sessions %d, want >= 1", st.ShedSessions)
	}

	// Releasing the slot lets the queued session run to completion: the
	// shed refused new load without damaging admitted sessions.
	hold.Finish(trace.Header{Misses: 1, CPUs: 2})
	if _, err := hold.Result(); err != nil {
		t.Errorf("holder: %v", err)
	}
	queued.Finish(trace.Header{Misses: 1, CPUs: 2})
	if _, err := queued.Result(); err != nil {
		t.Errorf("queued session after release: %v", err)
	}
}

// TestResilientBusyRetry closes the loop on shedding: a resilient client
// refused with busy keeps retrying on the server's hint and completes
// once the slot frees — overload delays resilient sessions, it does not
// fail them.
func TestResilientBusyRetry(t *testing.T) {
	srv := startServer(t, server.Config{
		MaxSessions:  1,
		QueueTimeout: 60 * time.Millisecond,
		RetryHint:    20 * time.Millisecond,
	})
	addr := srv.Addr().String()

	hold, err := server.DialSession(addr, 2, server.Request{Label: "hold"})
	if err != nil {
		t.Fatalf("dial hold: %v", err)
	}
	defer hold.Close()
	hold.Append(trace.Miss{})
	waitFor(t, "holder to take the slot", func() bool { return srv.Stats().ActiveSessions == 1 })

	misses := synthMisses(3000, 2, 5)
	type outcome struct {
		res   *server.SessionResult
		stats server.RetryStats
		err   error
	}
	resCh := make(chan outcome, 1)
	go func() {
		pol := server.RetryPolicy{
			BaseDelay:   20 * time.Millisecond,
			MaxDelay:    50 * time.Millisecond,
			MaxAttempts: 200,
		}
		rs, err := server.DialResilient(addr, 2, server.Request{Label: "patient"}, pol)
		if err != nil {
			resCh <- outcome{err: err}
			return
		}
		for _, m := range misses {
			rs.Append(m)
		}
		rs.Finish(trace.Header{Misses: len(misses), Instructions: 9, CPUs: 2})
		res, err := rs.Result()
		resCh <- outcome{res: res, stats: rs.Stats(), err: err}
	}()

	// Hold the slot until the server has demonstrably shed the patient
	// client at least twice, then let it through.
	waitFor(t, "resilient client to be shed twice", func() bool { return srv.Stats().ShedSessions >= 2 })
	hold.Finish(trace.Header{Misses: 1, CPUs: 2})
	if _, err := hold.Result(); err != nil {
		t.Fatalf("holder: %v", err)
	}

	out := <-resCh
	if out.err != nil {
		t.Fatalf("patient session failed: %v (stats %+v)", out.err, out.stats)
	}
	if out.stats.Busy < 2 {
		t.Errorf("patient session counted %d busy sheds, want >= 2 (stats %+v)", out.stats.Busy, out.stats)
	}
	if out.res.Header.Misses != len(misses) {
		t.Errorf("patient session header misses %d, want %d", out.res.Header.Misses, len(misses))
	}
}

// TestResilientBadRequestTerminal pins error classification: a request
// the server will never accept (negative analysis window) must fail
// immediately — one dial, no retry storm against a deterministic
// rejection.
func TestResilientBadRequestTerminal(t *testing.T) {
	srv := startServer(t, server.Config{})
	var dials atomic.Int64
	pol := server.RetryPolicy{
		BaseDelay: time.Millisecond,
		Dial: func(a string) (net.Conn, error) {
			dials.Add(1)
			return net.Dial("tcp", a)
		},
	}
	_, err := server.DialResilient(srv.Addr().String(), 2,
		server.Request{Analysis: core.Options{MaxMisses: -1}}, pol)
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("negative")) {
		t.Fatalf("err = %v, want the server's negative-window rejection", err)
	}
	if errors.Is(err, server.ErrRetriesExhausted) {
		t.Errorf("terminal bad_request reported as retries exhausted: %v", err)
	}
	if d := dials.Load(); d != 1 {
		t.Errorf("dials = %d, want 1 (terminal errors must not be retried)", d)
	}
}

// heldAfterHello is a resilient client's conn that forces the early-reject
// ordering. Its writes after the request line wait until the server has
// answered and closed; the server's first line (the hello) reads through
// at once, but every later byte is held until one of the client's writes
// has failed, and a little longer. So a stream write fails before the
// server's rejection can be read.
type heldAfterHello struct {
	net.Conn
	answered <-chan struct{} // closed once the server answered and closed
	writes   int

	helloRead bool
	held      []byte // bytes read past the hello, delivered once released

	failOnce, closeOnce sync.Once
	failed, closed      chan struct{}
}

func (c *heldAfterHello) Write(p []byte) (int, error) {
	if c.writes++; c.writes > 1 { // the request line goes through
		<-c.answered
	}
	n, err := c.Conn.Write(p)
	if err != nil {
		c.failOnce.Do(func() { close(c.failed) })
	}
	return n, err
}

func (c *heldAfterHello) Read(p []byte) (int, error) {
	if !c.helloRead {
		n, err := c.Conn.Read(p)
		if i := bytes.IndexByte(p[:n], '\n'); i >= 0 {
			c.helloRead = true
			c.held = append(c.held, p[i+1:n]...)
			return i + 1, nil
		}
		return n, err
	}
	select {
	case <-c.failed:
		time.Sleep(50 * time.Millisecond)
	case <-c.closed:
	}
	if len(c.held) > 0 {
		n := copy(p, c.held)
		c.held = c.held[n:]
		return n, nil
	}
	return c.Conn.Read(p)
}

func (c *heldAfterHello) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// TestResilientReadsRejectionAfterBrokenWrite pins ResilientSession's
// half of an early rejection: a server that admits the session, then
// rejects it with a typed non-retryable code before reading the stream
// and closes, breaks the client's next stream write before the client
// has read the answer. The session must report that answer — after one
// dial, not as a broken pipe or an exhausted retry budget.
func TestResilientReadsRejectionAfterBrokenWrite(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	answered := make(chan struct{})
	var answerOnce sync.Once
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			bufio.NewReader(conn).ReadBytes('\n')
			conn.Write([]byte(`{"token":"stub","next_frame":0}` + "\n" +
				`{"error":"stub rejects every session","code":"bad_request"}` + "\n"))
			conn.Close()
			answerOnce.Do(func() { close(answered) })
		}
	}()

	var dials atomic.Int64
	pol := server.RetryPolicy{
		BaseDelay:   time.Millisecond,
		MaxAttempts: 3,
		Dial: func(addr string) (net.Conn, error) {
			dials.Add(1)
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return &heldAfterHello{Conn: conn, answered: answered,
				failed: make(chan struct{}), closed: make(chan struct{})}, nil
		},
	}
	// The write that breaks is the stream prefix (inside the dial) or a
	// later frame, depending on when the close reaches the client.
	rs, err := server.DialResilient(ln.Addr().String(), 2, server.Request{}, pol)
	if err == nil {
		for _, m := range synthMisses(20000, 2, 5) {
			rs.Append(m)
		}
		rs.Finish(trace.Header{CPUs: 2})
		_, err = rs.Result()
	}
	if err == nil || !strings.Contains(err.Error(), "stub rejects every session") {
		t.Errorf("err = %v, want the stub's rejection", err)
	}
	if errors.Is(err, server.ErrRetriesExhausted) {
		t.Errorf("terminal rejection reported as retries exhausted: %v", err)
	}
	if d := dials.Load(); d != 1 {
		t.Errorf("dials = %d, want 1 (a terminal rejection must not be retried)", d)
	}
}
