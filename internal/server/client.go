package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/link"
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
)

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
	dc  *link.Conn
	enc *wire.Encoder
	br  *bufio.Reader

	resp *SessionResult
	err  error
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
	dc := &link.Conn{Conn: conn, ReadTimeout: defaultReadTimeout, WriteTimeout: defaultWriteTimeout}
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
		dc:  dc,
		enc: wire.NewEncoder(dc, cpus),
		br:  bufio.NewReader(dc),
	}
	if err := c.enc.Err(); err != nil && dc.WriteErr() == nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// SetTimeouts overrides the per-operation socket bounds (0 keeps the
// current value; negative disables that bound). Call before streaming.
func (c *ClientSession) SetTimeouts(read, write time.Duration) {
	if read != 0 {
		c.dc.ReadTimeout = read
	}
	if write != 0 {
		c.dc.WriteTimeout = write
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
	defer c.dc.Close()
	if err := c.enc.Close(); err != nil {
		c.err = err
		if c.dc.WriteErr() != nil {
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
	c.dc.ReadTimeout = link.PendingReplyTimeout
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
func (c *ClientSession) Close() error { return c.dc.Close() }
