package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/trace"
	"repro/internal/wire"
)

// Client-side per-operation bounds. These are liveness bounds on a
// single read or write — not a retry policy (ResilientSession layers
// that separately): without them a dead or wedged peer leaves the
// producer blocked in a socket call forever.
const (
	defaultDialTimeout = 10 * time.Second
	// defaultWriteTimeout bounds one stream write. It must comfortably
	// exceed the server's queue wait (admission backpressure is an unread
	// socket, so writes stall legitimately while queued).
	defaultWriteTimeout = 2 * time.Minute
	// defaultReadTimeout bounds the response read, which spans the
	// server's final analysis of the stream.
	defaultReadTimeout = 5 * time.Minute
	// pendingReplyTimeout bounds the read for a server's answer after a
	// stream write failed: a peer that rejected the session has already
	// written it, so it is either in the socket buffer or never coming.
	pendingReplyTimeout = time.Second
)

// deadlineConn arms a fresh deadline before every Read and Write, so
// each individual operation — request line, stream frame, response read —
// is bounded without any call site managing deadlines itself.
type deadlineConn struct {
	net.Conn
	read, write time.Duration
	// werr is the first failed Write: the stream broke on the transport,
	// not on a local encoding fault.
	werr error
}

func (c *deadlineConn) Read(p []byte) (int, error) {
	if c.read > 0 {
		if err := c.Conn.SetReadDeadline(time.Now().Add(c.read)); err != nil {
			return 0, err
		}
	}
	return c.Conn.Read(p)
}

func (c *deadlineConn) Write(p []byte) (int, error) {
	if c.write > 0 {
		if err := c.Conn.SetWriteDeadline(time.Now().Add(c.write)); err != nil {
			return 0, err
		}
	}
	n, err := c.Conn.Write(p)
	if err != nil && c.werr == nil {
		c.werr = err
	}
	return n, err
}

// ClientSession is the client half of one ingest session: a trace.Sink
// that streams every record over the wire protocol, so a producer
// (workload.RunStream, a decoder replaying an archive, any Sink driver)
// plugs into a remote tsserved exactly as it would into a local analyzer.
// Drive it with Append/Finish, then call Result to collect the server's
// analysis.
//
// Every socket operation carries a per-operation deadline (see
// SetTimeouts), so a peer that dies without closing the connection
// surfaces as a timeout error instead of hanging the producer. The
// session does not retry — for fault tolerance use ResilientSession.
type ClientSession struct {
	conn net.Conn
	dc   *deadlineConn
	enc  *wire.Encoder
	br   *bufio.Reader

	resp     *SessionResult
	finished bool
	err      error
}

// DialSession opens a connection to a tsserved ingest address and
// negotiates one session for a cpus-processor miss stream. The request's
// analysis options and prefetch config select what the server computes.
//
// A server that rejects the request answers and closes at once, so the
// stream's first frames may already meet a closed socket. Such a write
// failure does not fail the dial: the encoder keeps it, Append and Finish
// become no-ops, and Result reports the server's typed answer in its
// place.
func DialSession(addr string, cpus int, req Request) (*ClientSession, error) {
	conn, err := net.DialTimeout("tcp", addr, defaultDialTimeout)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	dc := &deadlineConn{Conn: conn, read: defaultReadTimeout, write: defaultWriteTimeout}
	line, err := json.Marshal(req)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("client: encoding request: %w", err)
	}
	if _, err := dc.Write(append(line, '\n')); err != nil {
		conn.Close()
		return nil, fmt.Errorf("client: sending request: %w", err)
	}
	c := &ClientSession{
		conn: conn,
		dc:   dc,
		enc:  wire.NewEncoder(dc, cpus),
		br:   bufio.NewReader(dc),
	}
	if err := c.enc.Err(); err != nil && dc.werr == nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// SetTimeouts overrides the per-operation socket bounds (0 keeps the
// current value; negative disables that bound). Call before streaming.
func (c *ClientSession) SetTimeouts(read, write time.Duration) {
	if read != 0 {
		c.dc.read = max(read, 0)
	}
	if write != 0 {
		c.dc.write = max(write, 0)
	}
}

// Append implements trace.Sink.
func (c *ClientSession) Append(m trace.Miss) { c.enc.Append(m) }

// AppendBatch implements trace.BatchSink, forwarding straight to the
// encoder's batch path.
func (c *ClientSession) AppendBatch(ms []trace.Miss) { c.enc.AppendBatch(ms) }

// Finish implements trace.Sink.
func (c *ClientSession) Finish(h trace.Header) { c.enc.Finish(h) }

// Records returns how many records have been streamed so far.
func (c *ClientSession) Records() int64 { return c.enc.Records() }

// Result completes the session: it writes the stream trailer, waits for
// the server's response, and closes the connection. Call exactly once,
// after Finish.
func (c *ClientSession) Result() (*SessionResult, error) {
	if c.resp != nil || c.err != nil {
		return c.resp, c.err
	}
	defer c.conn.Close()
	if err := c.enc.Close(); err != nil {
		c.err = err
		if c.dc.werr != nil {
			c.err = c.pendingReply(err)
		}
		return nil, c.err
	}
	line, err := c.br.ReadBytes('\n')
	if err != nil {
		c.err = fmt.Errorf("client: reading response: %w", err)
		return nil, c.err
	}
	var resp Response
	if err := json.Unmarshal(line, &resp); err != nil {
		c.err = fmt.Errorf("client: parsing response: %w", err)
		return nil, c.err
	}
	if resp.Error != "" {
		c.err = fmt.Errorf("client: server: %s", resp.Error)
		return nil, c.err
	}
	if resp.Result == nil {
		c.err = errors.New("client: empty response")
		return nil, c.err
	}
	c.resp = resp.Result
	return c.resp, nil
}

// pendingReply reports why a stream write failed. A server that rejected
// the session wrote its answer before closing, so a typed error line in
// the socket buffer explains the broken write better than the write
// error itself; without one, werr stands.
func (c *ClientSession) pendingReply(werr error) error {
	c.dc.read = pendingReplyTimeout
	line, err := c.br.ReadBytes('\n')
	if err != nil {
		return werr
	}
	var resp Response
	if json.Unmarshal(line, &resp) != nil || resp.Error == "" {
		return werr
	}
	return fmt.Errorf("client: server: %s", resp.Error)
}

// Close abandons the session without waiting for a result (error paths).
func (c *ClientSession) Close() error { return c.conn.Close() }
