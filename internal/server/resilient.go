package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"

	"repro/internal/link"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Terminal resilient-session failures. Everything else the session hits —
// resets, stalls, busy and draining sheds, in-flight corruption — is
// absorbed by its retry loop.
var (
	// ErrRetriesExhausted: the retry policy ran out of attempts without a
	// successful reconnect.
	ErrRetriesExhausted = errors.New("resilient: retry policy exhausted")
	// ErrResumeLost: the server no longer holds the session's parked
	// state (grace window expired) and the replay ring has already
	// dropped acknowledged frames, so neither resuming nor restarting
	// from scratch can reconstruct the stream.
	ErrResumeLost = errors.New("resilient: server lost resume state beyond the replay ring")
	// errSessionClosed: the session was abandoned via Close.
	errSessionClosed = errors.New("resilient: session closed")
	// errNoConn is the internal recovery cause when an operation finds no
	// live connection.
	errNoConn = errors.New("resilient: no active connection")
)

// RetryPolicy tunes a ResilientSession's recovery behavior. The zero
// value selects the documented defaults.
type RetryPolicy struct {
	// MaxAttempts bounds consecutive failed recovery attempts — without
	// forward progress — before the session fails with
	// ErrRetriesExhausted. An attempt that advances the server's
	// acknowledged frame position refreshes the budget, so a persistent
	// but lossy transport converges instead of exhausting a fixed total.
	// 0 means 10.
	MaxAttempts int
	// BaseDelay is the first backoff step; it doubles per failed attempt
	// up to MaxDelay, with uniform jitter in [d/2, d). A server-supplied
	// retry_after_ms hint raises (never lowers) the next delay. 0 means
	// 50ms / 2s.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// DialTimeout bounds each reconnect dial. 0 means 5s.
	DialTimeout time.Duration
	// HelloTimeout bounds the wait for admission (the server's hello
	// arrives only once the session holds an analyzer slot) and, ring
	// full, the wait for the next ack. It should exceed the server's
	// QueueTimeout so an overloaded server answers busy before the client
	// gives up on it. 0 means 45s.
	HelloTimeout time.Duration
	// IOTimeout bounds each stream write. 0 means 1m.
	IOTimeout time.Duration
	// ResponseTimeout bounds Result's total wait for the final response,
	// across reconnects. 0 means 5m.
	ResponseTimeout time.Duration
	// RingFrames bounds the replay ring (unacknowledged frames kept for
	// retransmission, ~16 KB each at the encoder's frame size). When the
	// ring is full the producer blocks awaiting acks — the same
	// backpressure an unread socket exerts, made explicit. The ring is
	// also the session's in-flight window: on an abrupt reset the peer's
	// kernel may discard everything not yet consumed, so over a lossy
	// link the window should stay below the expected distance between
	// failures or each reconnect replays more than the link delivers.
	// 0 means 256.
	RingFrames int
	// Seed drives the jitter; a fixed seed makes recovery schedules
	// reproducible in tests.
	Seed int64
	// Dial overrides the transport (tests inject faultnet here). nil
	// means TCP with DialTimeout.
	Dial func(addr string) (net.Conn, error)
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 10
	}
	if p.BaseDelay == 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay == 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.DialTimeout == 0 {
		p.DialTimeout = 5 * time.Second
	}
	if p.HelloTimeout == 0 {
		p.HelloTimeout = 45 * time.Second
	}
	if p.IOTimeout == 0 {
		p.IOTimeout = time.Minute
	}
	if p.ResponseTimeout == 0 {
		p.ResponseTimeout = 5 * time.Minute
	}
	if p.RingFrames == 0 {
		p.RingFrames = 256
	}
	if p.Dial == nil {
		dt := p.DialTimeout
		p.Dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, dt)
		}
	}
	return p
}

// RetryStats counts a session's recovery events per error class, for
// operational summaries (tsload aggregates them across its fleet).
type RetryStats struct {
	// Dials is connection attempts, including the first.
	Dials int64 `json:"dials"`
	// Transport is transport-level failures (resets, timeouts, dial
	// errors) that triggered or continued recovery.
	Transport int64 `json:"transport"`
	// Busy / Draining / StreamErrors count server-reported retryable
	// failures by code.
	Busy         int64 `json:"busy"`
	Draining     int64 `json:"draining"`
	StreamErrors int64 `json:"stream_errors"`
	// Resumes is successful mid-stream resumptions from parked server
	// state; Restarts is recoveries that began the session over from
	// frame zero after the server lost that state.
	Resumes  int64 `json:"resumes"`
	Restarts int64 `json:"restarts"`
	// ResumeLost counts terminal resume_unknown failures (state gone and
	// the ring incomplete).
	ResumeLost int64 `json:"resume_lost"`
}

// Add folds other's counters into s (for fleet-wide aggregation).
func (s *RetryStats) Add(o RetryStats) {
	s.Dials += o.Dials
	s.Transport += o.Transport
	s.Busy += o.Busy
	s.Draining += o.Draining
	s.StreamErrors += o.StreamErrors
	s.Resumes += o.Resumes
	s.Restarts += o.Restarts
	s.ResumeLost += o.ResumeLost
}

// retryErr marks a failure as retryable, optionally carrying the
// server's backoff hint.
type retryErr struct {
	err  error
	hint time.Duration
}

func (e *retryErr) Error() string { return e.err.Error() }
func (e *retryErr) Unwrap() error { return e.err }

// frame is one encoder-emitted wire frame held for retransmission. seq
// numbers data frames 0,1,2,… in stream order (the trailer gets the next
// seq after the last data frame), matching the server's cumulative
// data-frame acks.
type frame struct {
	seq  int64
	data []byte
}

// ctlMsg is one parsed server control line (or the read error that ended
// the connection's control channel).
type ctlMsg struct {
	line controlLine
	err  error
}

// connEpoch is one connection's lifetime within a resilient session: the
// conn, its deadline-armed write side, and the reader goroutine's line
// channel. Recovery replaces the whole epoch; closing done releases the
// reader even if nobody drains its channel.
type connEpoch struct {
	conn  net.Conn
	dc    *link.Conn
	lines chan ctlMsg
	done  chan struct{}
}

// abort ends the epoch: the conn closes (unblocking the reader) and done
// releases the reader even if its channel send is pending.
func (ep *connEpoch) abort() {
	close(ep.done)
	ep.conn.Close()
}

// ResilientSession is the fault-tolerant client half of one ingest
// session: the same trace.Sink shape as ClientSession, but every
// transport failure, server shed, or in-flight corruption is absorbed by
// reconnecting and resuming. It opts into the server's resumable
// protocol (session token, per-frame acks) and keeps a bounded replay
// ring of unacknowledged frames; on reconnect it replays from the
// server's hello position, so an interrupted session continues the same
// incremental analysis server-side. If the server's parked state is gone
// (grace window expired) and the ring still holds the whole stream, the
// session degrades to a clean restart from frame zero; only when neither
// is possible — or the retry policy is exhausted — does it fail, and
// then with a typed terminal error.
//
// Like every Sink, a session is driven from one goroutine: Append zero
// or more times, Finish once, then Result for the server's analysis.
type ResilientSession struct {
	addr string
	cpus int
	req  Request
	pol  RetryPolicy
	rng  *rand.Rand

	enc        *wire.Encoder
	prefix     []byte // magic + header frame, replayed on every reconnect
	prefixDone bool

	ring    []frame // unacked frames, ring[0].seq == ackedTo when non-empty
	ackedTo int64   // cumulative data frames the server has consumed
	nextSeq int64

	token         string
	epoch         *connEpoch
	resumeUnknown int           // consecutive resume_unknown replies for a live token
	hint          time.Duration // pending server retry_after hint
	stats         RetryStats
	encDone       bool
	respDone      bool // server reported the session already complete at hello
	closed        bool
	resp          *SessionResult
	err           error
}

// Write implements the encoder's io.Writer: the magic and header frames
// (written during NewEncoder) become the replay prefix; every later
// frame — the encoder emits exactly one Write per frame — enters the
// replay ring and is transmitted. The bytes are copied, because the
// encoder reuses its scratch buffer across frames.
func (s *ResilientSession) Write(p []byte) (int, error) {
	if !s.prefixDone {
		s.prefix = append(s.prefix, p...)
		return len(p), nil
	}
	s.enqueue(append([]byte(nil), p...))
	return len(p), nil
}

// DialResilient opens a fault-tolerant ingest session. The initial
// connect runs under the same retry policy as later recoveries, so a
// briefly busy server delays the dial rather than failing it.
func DialResilient(addr string, cpus int, req Request, pol RetryPolicy) (*ResilientSession, error) {
	s := &ResilientSession{
		addr: addr,
		cpus: cpus,
		req:  req,
		pol:  pol.withDefaults(),
	}
	s.rng = rand.New(rand.NewSource(s.pol.Seed))
	s.enc = wire.NewEncoder(s, cpus)
	if err := s.enc.Err(); err != nil {
		return nil, err
	}
	s.prefixDone = true
	if err := s.recover(nil); err != nil {
		return nil, err
	}
	return s, nil
}

// Append implements trace.Sink.
func (s *ResilientSession) Append(m trace.Miss) {
	if s.err == nil {
		s.enc.Append(m)
	}
}

// Finish implements trace.Sink.
func (s *ResilientSession) Finish(h trace.Header) {
	if s.err == nil {
		s.enc.Finish(h)
	}
}

// Records returns how many records have been streamed so far.
func (s *ResilientSession) Records() int64 { return s.enc.Records() }

// Stats returns the session's recovery counters so far.
func (s *ResilientSession) Stats() RetryStats { return s.stats }

// Token returns the server-issued session token (for observability).
func (s *ResilientSession) Token() string { return s.token }

// Result completes the session: it flushes the trailer, waits out any
// remaining recoveries, and returns the server's analysis. Call exactly
// once, after Finish.
func (s *ResilientSession) Result() (*SessionResult, error) {
	if s.resp == nil && s.err == nil && !s.encDone {
		s.encDone = true
		if err := s.enc.Close(); err != nil && s.err == nil {
			s.err = err
		}
	}
	deadline := time.Now().Add(s.pol.ResponseTimeout)
	for s.resp == nil && s.err == nil {
		if s.epoch == nil {
			s.recover(errNoConn)
			continue
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			s.err = fmt.Errorf("resilient: no response within %v", s.pol.ResponseTimeout)
			break
		}
		select {
		case msg := <-s.epoch.lines:
			s.handleLine(msg)
		case <-time.After(remaining):
			s.err = fmt.Errorf("resilient: no response within %v", s.pol.ResponseTimeout)
		}
	}
	s.dropEpoch()
	if s.err != nil {
		return nil, s.err
	}
	return s.resp, nil
}

// Close abandons the session (error paths); safe after Result.
func (s *ResilientSession) Close() error {
	s.closed = true
	s.dropEpoch()
	if s.resp == nil && s.err == nil {
		s.err = errSessionClosed
	}
	return nil
}

// enqueue admits one encoder frame: waits for ring space (ack
// backpressure), records it for replay, and transmits it. If an ack
// drain triggered a recovery, the reconnect already replayed the frame
// from the ring and no direct send happens.
func (s *ResilientSession) enqueue(data []byte) {
	if s.err != nil || s.closed || s.resp != nil {
		return
	}
	for len(s.ring) >= s.pol.RingFrames && s.err == nil && s.resp == nil {
		s.awaitAck()
	}
	if s.err != nil || s.resp != nil {
		return
	}
	fr := frame{seq: s.nextSeq, data: data}
	s.nextSeq++
	s.ring = append(s.ring, fr)
	ep := s.epoch
	s.drain()
	if s.err != nil || s.resp != nil || s.epoch == nil || s.epoch != ep {
		return
	}
	if _, err := ep.dc.Write(fr.data); err != nil {
		s.awaitReply(err)
	}
}

// awaitReply handles a failed stream write on the installed epoch. A
// server that rejected the session wrote its answer before it closed, and
// that answer, not the broken pipe, says whether a retry can help. So the
// lines still arriving are handled first, for up to
// link.PendingReplyTimeout, and only then does the write failure start a
// recovery.
func (s *ResilientSession) awaitReply(werr error) {
	timeout := time.After(link.PendingReplyTimeout)
	for {
		select {
		case msg := <-s.epoch.lines:
			if !s.handleLine(msg) {
				return
			}
		case <-timeout:
			s.recover(werr)
			return
		}
	}
}

// drain consumes whatever control lines have already arrived (acks,
// usually) without blocking.
func (s *ResilientSession) drain() {
	for s.err == nil && s.epoch != nil {
		select {
		case msg := <-s.epoch.lines:
			if !s.handleLine(msg) {
				return
			}
		default:
			return
		}
	}
}

// awaitAck blocks for the next control line — used only when the replay
// ring is full, where the server's acks are the session's backpressure.
func (s *ResilientSession) awaitAck() {
	if s.epoch == nil {
		s.recover(errNoConn)
		return
	}
	select {
	case msg := <-s.epoch.lines:
		s.handleLine(msg)
	case <-time.After(s.pol.HelloTimeout):
		s.recover(fmt.Errorf("resilient: no ack within %v with replay ring full", s.pol.HelloTimeout))
	}
}

// handleLine processes one control line of the installed epoch. It
// returns false when the current epoch is no longer valid (recovery ran,
// the session completed, or it failed terminally).
func (s *ResilientSession) handleLine(msg ctlMsg) bool {
	if msg.err != nil {
		s.recover(msg.err)
		return false
	}
	end, err := s.applyLine(msg.line)
	if !end {
		return true
	}
	var re *retryErr
	switch {
	case err == nil: // the result line
	case errors.As(err, &re):
		s.hint = re.hint
		s.recover(re.err)
	default:
		s.err = err
		s.dropEpoch()
	}
	return false
}

// applyLine folds one server control line into the session: an ack
// advances the resume window, a result completes the session (s.resp),
// and an error line is classified and returned. It reports whether the
// line ended the connection's part of the session.
func (s *ResilientSession) applyLine(l controlLine) (end bool, err error) {
	switch {
	case l.Ack != nil:
		s.dropAcked(*l.Ack)
	case l.Result != nil:
		s.resp = l.Result
		return true, nil
	case l.Error != "":
		return true, s.classifyServerError(l)
	}
	return false, nil
}

// dropAcked discards ring frames the server has fully consumed.
func (s *ResilientSession) dropAcked(n int64) {
	if n <= s.ackedTo {
		return
	}
	i := 0
	for i < len(s.ring) && s.ring[i].seq < n {
		i++
	}
	s.ring = append(s.ring[:0], s.ring[i:]...)
	s.ackedTo = n
}

// classifyServerError maps a server error line to a retryable or
// terminal client error, counting it by class. resume_unknown degrades
// to a restart from scratch when the ring still holds the entire stream
// (nothing was ever acked and therefore dropped); with acked frames
// gone it is retried briefly (the park may not have landed yet) and then
// terminal.
func (s *ResilientSession) classifyServerError(l controlLine) error {
	err := fmt.Errorf("server: %s", l.Error)
	hint := time.Duration(l.RetryAfterMS) * time.Millisecond
	switch l.Code {
	case CodeBusy:
		s.stats.Busy++
		return &retryErr{err: err, hint: hint}
	case CodeDraining:
		s.stats.Draining++
		return &retryErr{err: err, hint: hint}
	case CodeStream:
		s.stats.StreamErrors++
		return &retryErr{err: err, hint: hint}
	case CodeResumeUnknown:
		if s.ackedTo == 0 {
			s.stats.Restarts++
			s.token = ""
			return &retryErr{err: err}
		}
		// A reconnect can outrun the server's park of the dying
		// connection's state: the client learns of a reset the instant its
		// write fails, while the server only parks once its decoder
		// observes the broken read — so a fast backoff can present a
		// perfectly good token before it is back in the table. Give the
		// park a couple of backoffs to land; only a persistent
		// resume_unknown means the state is truly gone.
		s.resumeUnknown++
		if s.resumeUnknown < 3 {
			return &retryErr{err: err, hint: hint}
		}
		s.stats.ResumeLost++
		return fmt.Errorf("%w: %v", ErrResumeLost, err)
	default:
		return err
	}
}

// backoff computes the next recovery delay: exponential from BaseDelay,
// capped at MaxDelay, raised to any pending server hint, with uniform
// jitter in [d/2, d) so a shed fleet does not reconnect in lockstep.
func (s *ResilientSession) backoff(attempt int) time.Duration {
	if attempt > 20 {
		attempt = 20
	}
	d := s.pol.BaseDelay << uint(attempt)
	if d <= 0 || d > s.pol.MaxDelay {
		d = s.pol.MaxDelay
	}
	if s.hint > d {
		d = s.hint
	}
	s.hint = 0
	half := d / 2
	return half + time.Duration(s.rng.Int63n(int64(half)+1))
}

// recover re-establishes the session after cause interrupted it (nil for
// the initial connect): dial, handshake, and replay unacknowledged
// frames, under the retry policy. On return either the session has a
// live epoch (nil error) or s.err is terminal.
func (s *ResilientSession) recover(cause error) error {
	if s.err != nil {
		return s.err
	}
	if s.closed {
		s.err = errSessionClosed
		return s.err
	}
	s.dropEpoch()
	if cause != nil && cause != errNoConn {
		s.stats.Transport++
	}
	lastErr := cause
	for attempt := 0; attempt < s.pol.MaxAttempts; attempt++ {
		if attempt > 0 || cause != nil || s.hint > 0 {
			time.Sleep(s.backoff(attempt))
		}
		acked := s.ackedTo
		err := s.attempt()
		if err == nil {
			return nil
		}
		lastErr = err
		var re *retryErr
		if errors.As(err, &re) {
			s.hint = re.hint
			// An attempt that advanced the server's acknowledged position
			// made forward progress even though it died (the hello's resume
			// point moved, so the server consumed frames from a previous
			// replay). Refresh the budget: MaxAttempts bounds consecutive
			// attempts WITHOUT progress, so a long stream crossing a lossy
			// link converges one surviving chunk at a time instead of
			// charging every partial replay against a fixed total.
			if s.ackedTo > acked {
				attempt = -1
			}
			continue
		}
		s.err = err
		return s.err
	}
	s.err = fmt.Errorf("%w (%d attempts): %v", ErrRetriesExhausted, s.pol.MaxAttempts, lastErr)
	return s.err
}

// attempt makes one connect-and-handshake try: dial, send the request
// (with the resume token, if any), await the hello, and replay the
// prefix plus every unacknowledged frame from the server's position. A
// *retryErr return means the next attempt may succeed; any other error
// is terminal.
func (s *ResilientSession) attempt() error {
	s.stats.Dials++
	conn, err := s.pol.Dial(s.addr)
	if err != nil {
		s.stats.Transport++
		return &retryErr{err: err}
	}
	dc := &link.Conn{Conn: conn, WriteTimeout: s.pol.IOTimeout}
	req := s.req
	req.Resume = &ResumeRequest{Token: s.token}
	line, err := json.Marshal(req)
	if err != nil {
		conn.Close()
		return fmt.Errorf("resilient: encoding request: %w", err)
	}
	if _, err := dc.Write(append(line, '\n')); err != nil {
		conn.Close()
		s.stats.Transport++
		return &retryErr{err: err}
	}
	ep := &connEpoch{
		conn:  conn,
		dc:    dc,
		lines: make(chan ctlMsg, 64),
		done:  make(chan struct{}),
	}
	go readControl(conn, ep.lines, ep.done)

	// The hello arrives once the server admits the session (it may queue
	// first); an error line here instead is a shed or a resume failure.
	var msg ctlMsg
	select {
	case msg = <-ep.lines:
	case <-time.After(s.pol.HelloTimeout):
		ep.abort()
		return &retryErr{err: fmt.Errorf("resilient: no hello within %v", s.pol.HelloTimeout)}
	}
	if msg.err != nil {
		ep.abort()
		s.stats.Transport++
		return &retryErr{err: msg.err}
	}
	l := msg.line
	if l.Error != "" {
		ep.abort()
		return s.classifyServerError(l)
	}
	if l.Token == "" {
		ep.abort()
		return errors.New("resilient: server hello carried no session token")
	}
	resuming := s.token != ""
	s.token = l.Token
	s.resumeUnknown = 0 // the server recognized us; any park race resolved
	if l.Done {
		// The previous connection's stream completed; only the response
		// line was lost. It follows on this connection — nothing to send.
		s.epoch = ep
		s.respDone = true
		return nil
	}
	next := l.NextFrame
	if next < s.ackedTo || next > s.nextSeq {
		ep.abort()
		return fmt.Errorf("resilient: server resume position %d outside acked window [%d, %d]", next, s.ackedTo, s.nextSeq)
	}
	s.dropAcked(next)
	if _, err := dc.Write(s.prefix); err != nil {
		return s.replayFailed(ep, err)
	}
	// Replay unacknowledged frames from the server's position, polling
	// control lines between writes: acks for frames the server consumes
	// mid-replay shrink the remaining work — and register as forward
	// progress for the retry budget even if this connection dies before
	// the replay completes — while a result line ends the session and an
	// error line aborts the attempt. Without the polling, a long replay
	// over a lossy link re-sends frames the server already has and a
	// doomed connection's partial progress is lost with it.
	for send := s.ackedTo; send < s.nextSeq; {
		if err := s.pollReplay(ep); err != nil {
			ep.abort()
			return err
		}
		if s.resp != nil {
			break
		}
		if send < s.ackedTo {
			send = s.ackedTo
		}
		if len(s.ring) == 0 || send >= s.nextSeq {
			break
		}
		fr := s.ring[int(send-s.ring[0].seq)]
		if _, err := dc.Write(fr.data); err != nil {
			return s.replayFailed(ep, err)
		}
		send++
	}
	s.epoch = ep
	if resuming {
		s.stats.Resumes++
	}
	return nil
}

// pollReplay consumes whatever control lines have already arrived while
// attempt() is still replaying — the epoch is not installed yet, so the
// usual drain() path cannot run. Acks advance the resume window
// mid-replay, a result line completes the session (s.resp), and a server
// error line classifies as usual. The returned error, if any, ends the
// attempt: a *retryErr for transport failures and retryable server
// errors, a terminal error otherwise.
func (s *ResilientSession) pollReplay(ep *connEpoch) error {
	for {
		select {
		case msg := <-ep.lines:
			if msg.err != nil {
				s.stats.Transport++
				return &retryErr{err: msg.err}
			}
			if end, err := s.applyLine(msg.line); end {
				return err
			}
		default:
			return nil
		}
	}
}

// replayFailed ends an attempt whose write on ep failed with werr. Like
// awaitReply it first gives the server's pending answer up to
// link.PendingReplyTimeout to arrive, consuming the acks that raced the
// failure, so the progress this replay made still counts toward the next
// attempt. A result line completes the session (nil error) and a server
// error line is returned classified; otherwise werr is a transport
// failure.
func (s *ResilientSession) replayFailed(ep *connEpoch, werr error) error {
	defer ep.abort()
	timeout := time.After(link.PendingReplyTimeout)
wait:
	for {
		select {
		case msg := <-ep.lines:
			if msg.err != nil {
				break wait
			}
			if end, err := s.applyLine(msg.line); end {
				return err
			}
		case <-timeout:
			break wait
		}
	}
	s.stats.Transport++
	return &retryErr{err: werr}
}

// dropEpoch abandons the current connection.
func (s *ResilientSession) dropEpoch() {
	if s.epoch == nil {
		return
	}
	s.epoch.abort()
	s.epoch = nil
}

// readControl is the per-epoch reader goroutine: it parses server lines
// into ch until the connection dies or the epoch is dropped.
func readControl(conn net.Conn, ch chan<- ctlMsg, done <-chan struct{}) {
	br := bufio.NewReader(conn)
	for {
		raw, err := br.ReadBytes('\n')
		var msg ctlMsg
		if err != nil {
			msg.err = err
		} else if jerr := json.Unmarshal(raw, &msg.line); jerr != nil {
			msg.err = fmt.Errorf("resilient: parsing server line: %w", jerr)
		}
		select {
		case ch <- msg:
		case <-done:
			return
		}
		if msg.err != nil {
			return
		}
	}
}
