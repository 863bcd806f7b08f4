package gateway_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/gateway"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/wire"
)

// TestGatewayLingersAfterRejection: after answering a client with an
// error the gateway half-closes and drains, so a client still streaming
// sees the answer and a clean EOF instead of a reset.
func TestGatewayLingersAfterRejection(t *testing.T) {
	gw := startGateway(t, testConfig(nil))
	conn, err := net.Dial("tcp", gw.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	req, _ := json.Marshal(server.Request{Resume: &server.ResumeRequest{Token: "no-such-token"}})
	if _, err := conn.Write(append(req, '\n')); err != nil {
		t.Fatalf("writing request: %v", err)
	}
	br := bufio.NewReader(conn)
	line, err := br.ReadBytes('\n')
	if err != nil || !bytes.Contains(line, []byte(server.CodeResumeUnknown)) {
		t.Fatalf("response %q, %v: want the resume_unknown rejection", line, err)
	}
	junk := make([]byte, 32<<10)
	for i := 0; i < 4; i++ {
		if _, err := conn.Write(junk); err != nil {
			t.Fatalf("write %d after the rejection: %v (want the gateway to drain, not reset)", i, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if n, err := br.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("read after the response = %d, %v; want io.EOF from the half-close", n, err)
	}
}

// heldConn is a backend leg whose writes are held until the backend has
// answered and closed, and whose reads are held until one of those
// writes has failed, and a little longer. It forces the ordering in
// which a live backend's rejection races the relay's next write: the
// write fails before the answer can be read.
type heldConn struct {
	net.Conn
	answered <-chan struct{} // closed once the backend answered and closed
	writes   int

	failOnce, closeOnce sync.Once
	failed, closed      chan struct{}
}

func (c *heldConn) Write(p []byte) (int, error) {
	if c.writes++; c.writes > 1 { // the request line goes through
		<-c.answered
	}
	n, err := c.Conn.Write(p)
	if err != nil {
		c.failOnce.Do(func() { close(c.failed) })
	}
	return n, err
}

func (c *heldConn) Read(p []byte) (int, error) {
	select {
	case <-c.failed:
		time.Sleep(50 * time.Millisecond)
	case <-c.closed:
	}
	return c.Conn.Read(p)
}

func (c *heldConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// TestGatewayPassesRacingBackendRejection: a live backend that rejects a
// session with a non-retryable code answers and closes while the relay
// is still streaming to it, so the relay's next write fails before the
// answer is read. The client must still get the backend's answer
// verbatim; the backend is not dead, so its circuit stays closed and the
// session is not rerouted.
func TestGatewayPassesRacingBackendRejection(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	rejection := []byte(`{"error":"stub rejects every session","code":"bad_request"}` + "\n")
	answered := make(chan struct{})
	var answerOnce sync.Once
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			bufio.NewReader(conn).ReadBytes('\n')
			conn.Write(rejection)
			conn.Close()
			answerOnce.Do(func() { close(answered) })
		}
	}()

	cfg := testConfig([]string{ln.Addr().String()})
	cfg.Probe = func(string, time.Duration) (*server.Stats, error) { return &server.Stats{}, nil }
	cfg.Dial = func(addr string) (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return &heldConn{Conn: conn, answered: answered, failed: make(chan struct{}), closed: make(chan struct{})}, nil
	}
	gw := startGateway(t, cfg)
	waitHealthy(t, gw, 1)

	conn, err := net.Dial("tcp", gw.Addr().String())
	if err != nil {
		t.Fatalf("dial gateway: %v", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write([]byte("{}\n")); err != nil {
		t.Fatalf("writing request: %v", err)
	}
	enc := wire.NewEncoder(conn, 2)
	misses := synthMisses(20000, 2, 3)
	for _, m := range misses {
		enc.Append(m)
	}
	enc.Finish(trace.Header{Misses: len(misses), Instructions: uint64(len(misses)) * 100, CPUs: 2})
	enc.Close() // the gateway drains what follows its answer
	line, err := bufio.NewReader(conn).ReadBytes('\n')
	if err != nil {
		t.Fatalf("reading the answer: %v", err)
	}
	if !bytes.Equal(line, rejection) {
		t.Errorf("answer %q, want the backend's rejection %q verbatim", line, rejection)
	}
	st := gw.Stats()
	if st.ReroutedSessions != 0 {
		t.Errorf("rerouted sessions = %d, want 0: a rejection is not a backend death", st.ReroutedSessions)
	}
	if len(st.Backends) != 1 || st.Backends[0].Circuit != gateway.CircuitClosed {
		t.Errorf("backends %+v, want the one backend's circuit closed", st.Backends)
	}
}
