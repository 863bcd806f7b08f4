// Package link holds the connection mechanics of the ingest session
// protocol, shared by every party that speaks it: the tsserved daemon and
// its clients (internal/server) and the tsgate relay (internal/gateway).
// It owns per-operation deadlines, the bounded request-line reader, the
// JSON control-line writer, resume tokens, the lingering close after a
// rejection, the bound on waiting for a peer's pending answer, and the
// park table that holds interrupted sessions under their tokens
// (ParkTable).
//
// The protocol's messages (Request, Response, Hello, Ack) stay in
// internal/server: link moves lines and holds state, it does not
// interpret either.
package link

import (
	"bufio"
	crand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"time"
)

// RequestLimit bounds a session's negotiation line; a request is a small
// JSON object, so anything larger is a confused or hostile client.
const RequestLimit = 64 << 10

// ErrRequestTooLarge is ReadRequest's error for a line over RequestLimit.
var ErrRequestTooLarge = fmt.Errorf("request exceeds %d bytes", RequestLimit)

// PendingReplyTimeout bounds the wait for a peer's answer after a write to
// it failed. A peer that rejected the session wrote its answer before it
// closed, so the answer is already in the socket buffer or in flight — or
// it is never coming.
const PendingReplyTimeout = time.Second

// A rejected connection lingers before it closes (see Linger): at most
// lingerTimeout, discarding at most lingerBytes of the peer's input.
const (
	lingerTimeout = time.Second
	lingerBytes   = 1 << 20
)

// Conn arms a fresh deadline before every Read and Write, so each
// individual operation — request line, stream frame, response read — is
// bounded without any call site managing deadlines itself. A timeout of
// zero or less leaves that direction unbounded.
type Conn struct {
	net.Conn
	ReadTimeout, WriteTimeout time.Duration
	werr                      error
}

func (c *Conn) Read(p []byte) (int, error) {
	if c.ReadTimeout > 0 {
		if err := c.Conn.SetReadDeadline(time.Now().Add(c.ReadTimeout)); err != nil {
			return 0, err
		}
	}
	return c.Conn.Read(p)
}

func (c *Conn) Write(p []byte) (int, error) {
	if c.WriteTimeout > 0 {
		if err := c.Conn.SetWriteDeadline(time.Now().Add(c.WriteTimeout)); err != nil {
			return 0, err
		}
	}
	n, err := c.Conn.Write(p)
	if err != nil && c.werr == nil {
		c.werr = err
	}
	return n, err
}

// WriteErr returns the first failed Write, if any: a stream that broke
// on the transport rather than on a local encoding fault.
func (c *Conn) WriteErr() error { return c.werr }

// ReadRequest reads the negotiation line, without its '\n', buffering at
// most RequestLimit bytes of it.
func ReadRequest(br *bufio.Reader) ([]byte, error) {
	var line []byte
	for len(line) <= RequestLimit {
		b, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		if b == '\n' {
			return line, nil
		}
		line = append(line, b)
	}
	return nil, ErrRequestTooLarge
}

// LineWriter writes control-channel lines — hello, acks, the final
// response — each flushed as soon as it is written. Bound its writes by
// handing it a Conn with a WriteTimeout, so a dead or wedged peer never
// pins the writer.
type LineWriter struct {
	bw  *bufio.Writer
	enc *json.Encoder
}

// NewLineWriter returns a LineWriter over w.
func NewLineWriter(w io.Writer) *LineWriter {
	bw := bufio.NewWriter(w)
	return &LineWriter{bw: bw, enc: json.NewEncoder(bw)}
}

// WriteJSON writes v as one JSON line.
func (w *LineWriter) WriteJSON(v any) error {
	if err := w.enc.Encode(v); err != nil {
		return err
	}
	return w.bw.Flush()
}

// WriteRaw writes line verbatim; it carries its own '\n'.
func (w *LineWriter) WriteRaw(line []byte) error {
	if _, err := w.bw.Write(line); err != nil {
		return err
	}
	return w.bw.Flush()
}

// NewToken mints a resume token: 128 random bits, unguessable so one
// client cannot resume (and so steal or corrupt) another's session.
func NewToken() string {
	var b [16]byte
	crand.Read(b[:]) // never fails: crypto/rand crashes the program instead
	return hex.EncodeToString(b[:])
}

// Linger is a lingering close's first half, for a connection answered
// with a rejection while its peer may still be sending (a rejected
// request is answered before the stream behind it is read). Closing with
// unread input would reset the connection, and the reset can beat the
// answer to the peer's next write, which then fails without the answer.
// So Linger half-closes the write side, letting the answer travel ahead
// of a FIN, and discards input until the peer closes or a bound is
// reached. A conn without CloseWrite is left as it is. The caller closes
// the connection.
func Linger(conn net.Conn) {
	cw, ok := conn.(interface{ CloseWrite() error })
	if !ok || cw.CloseWrite() != nil {
		return
	}
	conn.SetReadDeadline(time.Now().Add(lingerTimeout))
	io.CopyN(io.Discard, conn, lingerBytes)
}
