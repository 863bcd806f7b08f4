package gateway

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/link"
	"repro/internal/server"
	"repro/internal/wire"
)

// gwSession is one relayed session: the client's routing key and derived
// backend request, the replay state (stream prefix, data-frame ring,
// trailer), and the current backend attachment. The same struct is what
// the park table holds between a client disconnect and its resume —
// parking a gateway session keeps the backend leg alive, so a resumed
// client splices onto the same backend session mid-stream.
type gwSession struct {
	id        uint64
	key       string
	remote    string
	resumable bool
	token     string
	reqLine   []byte // backend-facing request line (Via set, Resume stripped)

	prefix   []byte   // magic + header frame, replayed on every backend attach
	frames   [][]byte // data frames from zero, for failover replay (nil after overflow)
	framesIn int64    // data frames received from the client and forwarded
	trailer  []byte
	overflow bool
	tried    map[string]bool // backends that failed or declined this session
	reroutes int

	be    *backend
	bconn net.Conn
	resp  chan backendResp

	doneLine []byte // final response line, for redelivery after a lost response
}

// backendResp is the per-attachment reader goroutine's single message:
// the backend's one response line, or the read error that ended the leg.
type backendResp struct {
	line []byte
	err  error
}

// relayFailure is how the relay reports a session it could not complete:
// either a backend line to pass through verbatim (raw), or a typed
// failure of the gateway's own.
type relayFailure struct {
	raw        []byte
	code       server.ErrCode
	err        error
	retryAfter time.Duration
}

// handle runs one client connection end to end. A connection answered
// with an error lingers before it closes, so a client still streaming
// reads the answer rather than a reset.
func (g *Gateway) handle(conn net.Conn) {
	defer conn.Close()
	if !g.serve(conn) {
		link.Linger(conn)
	}
}

// serve negotiates one connection's session and relays it. It reports
// false when it answered the client with an error.
func (g *Gateway) serve(conn net.Conn) bool {
	dc := &link.Conn{Conn: conn, ReadTimeout: g.cfg.IdleTimeout, WriteTimeout: g.cfg.IdleTimeout}
	br := bufio.NewReaderSize(dc, 64<<10)
	cw := link.NewLineWriter(dc)

	line, err := link.ReadRequest(br)
	if err != nil {
		code := server.CodeBadRequest
		if errors.Is(err, link.ErrRequestTooLarge) {
			code = server.CodeTooLarge
		}
		cw.WriteJSON(server.Response{Error: fmt.Sprintf("reading request: %v", err), Code: code})
		return false
	}
	var req server.Request
	if err := json.Unmarshal(line, &req); err != nil {
		cw.WriteJSON(server.Response{Error: fmt.Sprintf("parsing request: %v", err), Code: server.CodeBadRequest})
		return false
	}
	if req.Probe {
		st := g.AggregateStats()
		cw.WriteJSON(server.Response{Stats: &st})
		return true
	}
	g.totalSessions.Add(1)

	g.mu.Lock()
	closed := g.closed
	g.mu.Unlock()
	if closed {
		g.totalShed.Add(1)
		g.totalFailed.Add(1)
		cw.WriteJSON(server.Response{
			Error: "gateway draining", Code: server.CodeDraining,
			RetryAfterMS: int(g.cfg.RetryHint / time.Millisecond),
		})
		return false
	}

	if req.Resume != nil && req.Resume.Token != "" {
		sess := g.parks.Take(req.Resume.Token)
		if sess == nil {
			g.totalFailed.Add(1)
			cw.WriteJSON(server.Response{
				Error: fmt.Sprintf("resume token unknown or expired (grace window %v)", g.cfg.ResumeGrace),
				Code:  server.CodeResumeUnknown,
			})
			return false
		}
		if sess.doneLine != nil {
			// The session completed; only the response line was lost.
			cw.WriteJSON(server.Hello{Token: sess.token, NextFrame: sess.framesIn, Done: true})
			cw.WriteRaw(sess.doneLine)
			g.parks.Park(sess.token, sess)
			return true
		}
		g.totalResumed.Add(1)
		sess.tried = make(map[string]bool) // a fresh connection earns backends a fresh chance
		return g.relay(sess, br, cw)
	}

	sess := &gwSession{
		id:        g.nextID.Add(1),
		remote:    conn.RemoteAddr().String(),
		resumable: req.Resume != nil,
		tried:     make(map[string]bool),
	}
	sess.key = req.Label
	if sess.key == "" {
		sess.key = sess.remote
	}
	if sess.resumable {
		sess.token = link.NewToken()
	}
	breq := req
	breq.Resume = nil
	breq.Via = g.cfg.Name
	bline, err := json.Marshal(breq)
	if err != nil {
		g.totalFailed.Add(1)
		cw.WriteJSON(server.Response{Error: fmt.Sprintf("encoding backend request: %v", err), Code: server.CodeBadRequest})
		return false
	}
	sess.reqLine = append(bline, '\n')
	return g.relay(sess, br, cw)
}

// relay streams one session (fresh or resumed) between its client and
// the fleet. On return the session has been completed, failed, or
// parked; backend attachment is released unless the session parked. It
// reports false when it answered the client with an error.
func (g *Gateway) relay(sess *gwSession, br *bufio.Reader, cw *link.LineWriter) bool {
	parked := false
	defer func() {
		if !parked {
			g.detach(sess)
			g.releaseFrames(sess)
		}
	}()

	if sess.bconn == nil {
		// Fresh session, or one parked while detached (its backend died
		// and no replacement was available at the time).
		if fail := g.attach(sess); fail != nil {
			parked = g.respondFail(cw, sess, fail)
			return false
		}
	}
	if sess.resumable {
		if err := cw.WriteJSON(server.Hello{Token: sess.token, NextFrame: sess.framesIn}); err != nil {
			parked = g.respondFail(cw, sess, &relayFailure{code: server.CodeStream, err: fmt.Errorf("writing hello: %w", err)})
			return false
		}
	}

	// Stream prefix: magic + header frame. A resumed client replays it on
	// every reconnect; the backend already holds it, so it is verified
	// against the original and dropped.
	if err := wire.ReadMagic(br); err != nil {
		parked = g.respondFail(cw, sess, &relayFailure{code: server.CodeStream, err: fmt.Errorf("reading stream magic: %w", err)})
		return false
	}
	kind, raw, err := wire.ReadRawFrame(br, nil)
	if err != nil {
		parked = g.respondFail(cw, sess, &relayFailure{code: server.CodeStream, err: fmt.Errorf("reading header frame: %w", err)})
		return false
	}
	if kind != wire.KindHeader {
		g.totalFailed.Add(1)
		cw.WriteJSON(server.Response{Error: fmt.Sprintf("stream starts with frame %c, want header", kind), Code: server.CodeBadRequest})
		return false
	}
	prefix := append(wire.MagicBytes(), raw...)
	switch {
	case sess.prefix == nil:
		sess.prefix = prefix
		if fail := g.forward(sess, sess.prefix); fail != nil {
			parked = g.respondFail(cw, sess, fail)
			return false
		}
	case !bytes.Equal(prefix, sess.prefix):
		g.totalFailed.Add(1)
		cw.WriteJSON(server.Response{Error: "resumed stream prefix differs from the original", Code: server.CodeBadRequest})
		return false
	}

	scratch := []byte(nil)
	for {
		// A backend that answered before the trailer is declining, dying,
		// or confused — all handled proactively so a dead backend is
		// replaced now, not at the next frame's write error.
		if fail := g.checkBackend(sess); fail != nil {
			parked = g.respondFail(cw, sess, fail)
			return false
		}
		kind, raw, err := wire.ReadRawFrame(br, scratch)
		if err != nil {
			// The client leg died (reset, idle trip, corruption). Only
			// whole CRC-verified frames were ever forwarded, so the stream
			// boundary is clean regardless of how the link failed: park for
			// resumption when the protocol allows it.
			parked = g.respondFail(cw, sess, &relayFailure{code: server.CodeStream, err: fmt.Errorf("reading stream: %w", err)})
			return false
		}
		switch kind {
		case wire.KindHeader:
			g.totalFailed.Add(1)
			cw.WriteJSON(server.Response{Error: "duplicate header frame", Code: server.CodeBadRequest})
			return false
		case wire.KindData:
			owned := append([]byte(nil), raw...)
			scratch = raw
			if !sess.overflow {
				if len(sess.frames) >= g.cfg.RingFrames {
					sess.overflow = true
					g.releaseFrames(sess) // failover impossible; stop retaining
					g.log.Info("replay ring overflowed; session can no longer fail over",
						"session", sess.id, "key", sess.key, "ring_frames", g.cfg.RingFrames)
				} else {
					sess.frames = append(sess.frames, owned)
					g.ringFrames.Add(1)
				}
			}
			if fail := g.forward(sess, owned); fail != nil {
				parked = g.respondFail(cw, sess, fail)
				return false
			}
			sess.framesIn++
			if sess.resumable {
				if err := cw.WriteJSON(server.Ack{Ack: sess.framesIn}); err != nil {
					parked = g.respondFail(cw, sess, &relayFailure{code: server.CodeStream, err: fmt.Errorf("writing ack: %w", err)})
					return false
				}
			}
		case wire.KindTrailer:
			if sess.trailer == nil {
				sess.trailer = append([]byte(nil), raw...)
				if fail := g.forward(sess, sess.trailer); fail != nil {
					parked = g.respondFail(cw, sess, fail)
					return false
				}
			}
			// else: a resumed client replaying a trailer the attach already
			// delivered — drop the duplicate.
			respLine, fail := g.awaitResponse(sess)
			if fail != nil {
				parked = g.respondFail(cw, sess, fail)
				return false
			}
			g.totalRelayedOK.Add(1)
			g.log.Info("session relayed", "session", sess.id, "key", sess.key,
				"frames", sess.framesIn, "reroutes", sess.reroutes)
			// The backend's part is over, and only the response line can
			// ever be redelivered. Release the load slot and the replay
			// ring before the client can read the answer: a slot still held
			// would count against the owner's bounded-load cap and route the
			// client's next session for this key off its hash owner.
			g.detach(sess)
			g.releaseFrames(sess)
			if sess.resumable {
				// Park the completed result for redelivery, as the server
				// does: a client whose response line was lost resumes and
				// collects it instead of failing with resume_unknown.
				sess.doneLine = respLine
				g.parks.Park(sess.token, sess)
				parked = true
			}
			cw.WriteRaw(respLine) // best effort; resumable clients can re-collect
			return true
		}
	}
}

// attach binds the session to a backend chosen by the ring and replays
// everything the session has streamed so far (request line, prefix, data
// frames, trailer). Backends that fail the dial are circuit-opened and
// skipped; a nil return means the session is attached and fully caught
// up.
func (g *Gateway) attach(sess *gwSession) *relayFailure {
	for {
		b, err := g.pick(sess.key, sess.tried)
		if err != nil {
			return g.shedFailure(err)
		}
		conn, derr := g.cfg.Dial(b.addr)
		if derr != nil {
			b.br.fail(derr, time.Now())
			g.mu.Lock()
			b.active--
			g.mu.Unlock()
			sess.tried[b.addr] = true
			continue
		}
		sess.be = b
		sess.bconn = &link.Conn{Conn: conn, WriteTimeout: g.cfg.WriteTimeout}
		sess.resp = make(chan backendResp, 1)
		go readResponse(conn, sess.resp)
		return g.replay(sess)
	}
}

// replay writes the session's accumulated stream to the current backend.
// A write failure hands off to backendFailed, which reroutes (the next
// attach replays everything, so nothing more to send here) or reports
// the terminal failure.
func (g *Gateway) replay(sess *gwSession) *relayFailure {
	parts := make([][]byte, 0, 3+len(sess.frames))
	parts = append(parts, sess.reqLine)
	if sess.prefix != nil {
		parts = append(parts, sess.prefix)
	}
	parts = append(parts, sess.frames...)
	if sess.trailer != nil {
		parts = append(parts, sess.trailer)
	}
	for _, p := range parts {
		if _, err := sess.bconn.Write(p); err != nil {
			return g.backendFailed(sess, err, nil)
		}
	}
	return nil
}

// forward relays one already-retained payload to the current backend. On
// failure the session reroutes — and because the payload was retained
// before forwarding, the reroute's replay has already delivered it.
func (g *Gateway) forward(sess *gwSession, p []byte) *relayFailure {
	if _, err := sess.bconn.Write(p); err != nil {
		return g.backendFailed(sess, err, nil)
	}
	return nil
}

// checkBackend polls the backend leg without blocking: any line or error
// before the trailer means the backend declined, died, or broke
// protocol.
func (g *Gateway) checkBackend(sess *gwSession) *relayFailure {
	select {
	case msg := <-sess.resp:
		return g.backendFailed(sess, errors.New("backend answered before the trailer"), &msg)
	default:
		return nil
	}
}

// backendFailed handles a suspected backend failure: classify (a
// busy/draining line means the backend is alive and shedding — move the
// session without opening its circuit; any other error line passes
// through to the client verbatim; everything else is a death that opens
// the circuit), then reroute via a fresh attach. A nil return means the
// session is attached to a replacement and fully replayed. pre is the
// backend's line or read error when that is what raised the suspicion;
// nil means a write failed with cause.
func (g *Gateway) backendFailed(sess *gwSession, cause error, pre *backendResp) *relayFailure {
	msg := pre
	if msg == nil {
		// A backend that rejected the session wrote its answer before it
		// closed, so after a failed write that answer is in flight or never
		// coming; wait for it, lest a live backend's rejection pass for its
		// death. A timed-out write means a wedged backend: nothing to await.
		var ne net.Error
		timedOut := errors.As(cause, &ne) && ne.Timeout()
		select {
		case m := <-sess.resp:
			msg = &m
		default:
			if !timedOut {
				t := time.NewTimer(link.PendingReplyTimeout)
				select {
				case m := <-sess.resp:
					msg = &m
				case <-t.C:
				}
				t.Stop()
			}
		}
	}
	decline := false
	var termRaw []byte
	if msg != nil {
		if msg.err != nil {
			cause = msg.err
		} else {
			var resp server.Response
			if json.Unmarshal(msg.line, &resp) == nil && resp.Error != "" {
				switch resp.Code {
				case server.CodeBusy, server.CodeDraining:
					decline = true
					cause = fmt.Errorf("backend shed session: %s", resp.Error)
				default:
					termRaw = msg.line
				}
			}
		}
	}
	victim := sess.be
	if victim != nil {
		if decline {
			g.mu.Lock()
			victim.declined++
			g.mu.Unlock()
		} else if termRaw == nil {
			victim.br.fail(cause, time.Now())
		}
		sess.tried[victim.addr] = true
	}
	g.detach(sess)
	if termRaw != nil {
		return &relayFailure{raw: termRaw}
	}
	if sess.overflow {
		return &relayFailure{
			code: server.CodeStream,
			err:  fmt.Errorf("backend lost beyond the session's replay ring (%d frames retained): %v", g.cfg.RingFrames, cause),
		}
	}
	if fail := g.attach(sess); fail != nil {
		return fail
	}
	if !decline {
		g.totalRerouted.Add(1)
		sess.reroutes++
		if victim != nil {
			g.mu.Lock()
			victim.rerouted++
			g.mu.Unlock()
		}
	}
	from := ""
	if victim != nil {
		from = victim.addr
	}
	to := ""
	if sess.be != nil {
		to = sess.be.addr
	}
	g.log.Warn("session rerouted", "session", sess.id, "key", sess.key,
		"from", from, "to", to, "declined", decline, "cause", cause.Error())
	return nil
}

// awaitResponse waits out the backend's final response after the
// trailer, rerouting (with full replay, trailer included) if the backend
// dies or declines while computing it.
func (g *Gateway) awaitResponse(sess *gwSession) ([]byte, *relayFailure) {
	deadline := time.Now().Add(g.cfg.ResponseTimeout)
	for {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			err := fmt.Errorf("no backend response within %v", g.cfg.ResponseTimeout)
			if b := sess.be; b != nil {
				b.br.fail(err, time.Now())
			}
			g.detach(sess)
			return nil, &relayFailure{code: server.CodeStream, err: err}
		}
		timer := time.NewTimer(remaining)
		select {
		case msg := <-sess.resp:
			timer.Stop()
			if msg.err == nil {
				var resp server.Response
				if json.Unmarshal(msg.line, &resp) == nil && resp.Error == "" && resp.Result != nil {
					return msg.line, nil
				}
			}
			if fail := g.backendFailed(sess, errors.New("backend response unusable"), &msg); fail != nil {
				return nil, fail
			}
			// Rerouted; keep waiting on the replacement.
		case <-timer.C:
		}
	}
}

// respondFail delivers a failure to the client. Retryable failures of
// resumable sessions park instead of failing outright — the client's
// typed-code retry resumes with the replay ring intact, so even "every
// backend is down right now" heals if the fleet recovers within the
// grace window. It reports whether the session parked (the caller must
// then not detach it).
func (g *Gateway) respondFail(cw *link.LineWriter, sess *gwSession, fail *relayFailure) bool {
	if fail.raw != nil {
		g.totalFailed.Add(1)
		cw.WriteRaw(fail.raw)
		return false
	}
	hint := int(fail.retryAfter / time.Millisecond)
	if fail.code.Retryable() && sess.resumable && !sess.overflow {
		g.mu.Lock()
		closed := g.closed
		g.mu.Unlock()
		if !closed {
			g.totalParked.Add(1)
			g.log.Info("session parked", "session", sess.id, "key", sess.key,
				"code", string(fail.code), "error", fail.err.Error())
			cw.WriteJSON(server.Response{Error: fail.err.Error(), Code: fail.code, RetryAfterMS: hint})
			g.parks.Park(sess.token, sess)
			return true
		}
	}
	g.totalFailed.Add(1)
	g.log.Warn("session failed", "session", sess.id, "key", sess.key,
		"code", string(fail.code), "error", fail.err.Error())
	cw.WriteJSON(server.Response{Error: fail.err.Error(), Code: fail.code, RetryAfterMS: hint})
	return false
}

// shedFailure classifies a routing dead end as the typed shed the
// protocol promises: draining when the gateway is stopping, busy
// otherwise, always with the retry hint.
func (g *Gateway) shedFailure(cause error) *relayFailure {
	g.mu.Lock()
	closed := g.closed
	n := 0
	for _, b := range g.backends {
		if !b.draining {
			n++
		}
	}
	g.mu.Unlock()
	g.totalShed.Add(1)
	code := server.CodeBusy
	if closed {
		code = server.CodeDraining
	}
	return &relayFailure{
		code:       code,
		err:        fmt.Errorf("gateway: %v (%d backends configured)", cause, n),
		retryAfter: g.cfg.RetryHint,
	}
}

// releaseParked frees a parked session the park table gave up — its
// grace window lapsed (expired) or the gateway shut down — releasing its
// backend leg and replay ring. An expiry is counted only once the slot
// and ring are released, so a reader that sees the count also sees the
// gauges it moved.
func (g *Gateway) releaseParked(sess *gwSession, expired bool) {
	g.detach(sess)
	g.releaseFrames(sess)
	if expired {
		g.totalExpired.Add(1)
		g.log.Info("parked session expired", "session", sess.id, "key", sess.key, "frames", sess.framesIn)
	}
}

// readResponse is the per-attachment backend reader: one line (the
// response) or the error that ended the leg. The channel is buffered, so
// the goroutine never outlives its send.
func readResponse(conn net.Conn, ch chan<- backendResp) {
	line, err := bufio.NewReader(conn).ReadBytes('\n')
	if err != nil {
		ch <- backendResp{err: err}
		return
	}
	ch <- backendResp{line: line}
}
