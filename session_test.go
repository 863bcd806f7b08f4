package tempstream

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/trace/sinktest"
)

// mustPanic runs fn and asserts it panics with a message containing
// want; the Session misuse guards promise defined messages instead of
// nil-pointer dereferences on the pooled analyzer.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Errorf("no panic, want one containing %q", want)
			return
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, want) {
			t.Errorf("panic = %v, want message containing %q", r, want)
		}
	}()
	fn()
}

func TestSessionAppendAfterFinishPanics(t *testing.T) {
	s := NewSession(2, 0, StreamOptions{})
	defer s.Close()
	s.Append(trace.Miss{Addr: 64})
	s.Finish(trace.Header{Misses: 1, CPUs: 2})
	mustPanic(t, "Append after Finish", func() { s.Append(trace.Miss{Addr: 128}) })
}

func TestSessionDoubleFinishPanics(t *testing.T) {
	s := NewSession(2, 0, StreamOptions{})
	defer s.Close()
	s.Finish(trace.Header{CPUs: 2})
	mustPanic(t, "Finish called twice", func() { s.Finish(trace.Header{CPUs: 2}) })
}

func TestSessionResultBeforeFinishPanics(t *testing.T) {
	s := NewSession(2, 0, StreamOptions{})
	defer s.Close()
	s.Append(trace.Miss{Addr: 64})
	mustPanic(t, "Result before Finish", func() { s.Result(nil) })
}

func TestSessionDoubleResultPanics(t *testing.T) {
	s := NewSession(2, 0, StreamOptions{})
	s.Append(trace.Miss{Addr: 64})
	s.Finish(trace.Header{Misses: 1, CPUs: 2})
	if cr := s.Result(nil); cr == nil || len(cr.Analysis.Misses) != 1 {
		t.Fatalf("first Result = %+v, want one analyzed miss", cr)
	}
	mustPanic(t, "called twice or after Close", func() { s.Result(nil) })
	// Misuse after the analyzer went back to the pool must also be the
	// defined panic, not a nil dereference.
	mustPanic(t, "Append after Finish", func() { s.Append(trace.Miss{}) })
}

// TestSessionCloseStates pins the error-returning close path: aborting a
// live stream reports ErrSessionAborted, every other close is a nil
// no-op, and Close is idempotent in all states.
func TestSessionCloseStates(t *testing.T) {
	// Mid-stream: aborted.
	s := NewSession(2, 0, StreamOptions{})
	s.Append(trace.Miss{Addr: 64})
	if err := s.Close(); !errors.Is(err, ErrSessionAborted) {
		t.Errorf("Close mid-stream = %v, want ErrSessionAborted", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close = %v, want nil", err)
	}

	// Finished but unread: the stream completed, so no abort.
	s = NewSession(2, 0, StreamOptions{})
	s.Finish(trace.Header{CPUs: 2})
	if err := s.Close(); err != nil {
		t.Errorf("Close after Finish = %v, want nil", err)
	}

	// After Result: nothing left to release.
	s = NewSession(2, 0, StreamOptions{})
	s.Finish(trace.Header{CPUs: 2})
	s.Result(nil)
	if err := s.Close(); err != nil {
		t.Errorf("Close after Result = %v, want nil", err)
	}
}

// TestSessionCloseBalancesPool asserts Close returns the analyzer in
// every state, through the pool's checked-out counter.
func TestSessionCloseBalancesPool(t *testing.T) {
	base := analyzersOut.Load()
	open := NewSession(2, 0, StreamOptions{})
	finished := NewSession(2, 0, StreamOptions{})
	finished.Finish(trace.Header{CPUs: 2})
	resulted := NewSession(2, 0, StreamOptions{})
	resulted.Finish(trace.Header{CPUs: 2})
	resulted.Result(nil)
	if got := analyzersOut.Load(); got != base+2 { // Result already returned one
		t.Fatalf("checked-out analyzers = %d, want %d", got, base+2)
	}
	open.Close()
	finished.Close()
	resulted.Close()
	if got := analyzersOut.Load(); got != base {
		t.Errorf("checked-out analyzers after Close = %d, want %d", got, base)
	}
}

// TestSessionRecycledChunkAfterClose closes a Session with records still
// in its chunk buffer, so the pooled unit goes back dirty, then runs a
// second stream through new Sessions: each result must equal the one a
// clean Session produced before, with no stale record of the aborted
// stream fed ahead of the new one.
func TestSessionRecycledChunkAfterClose(t *testing.T) {
	const cpus = 4
	aborted := sinktest.Misses(9000, cpus)
	ms := sinktest.Misses(6000, cpus)[1000:]
	h := sinktest.Header(len(ms), cpus)
	run := func() *ContextResult {
		s := NewSession(cpus, 0, StreamOptions{})
		s.AppendBatch(ms[:100]) // small batches take the chunk buffer
		for _, m := range ms[100:200] {
			s.Append(m)
		}
		s.AppendBatch(ms[200:])
		s.Finish(h)
		return s.Result(nil)
	}
	want := run()
	for i := range 4 {
		s := NewSession(cpus, 0, StreamOptions{})
		s.AppendBatch(aborted[:1000+i*500])
		if err := s.Close(); !errors.Is(err, ErrSessionAborted) {
			t.Fatalf("Close mid-stream = %v, want ErrSessionAborted", err)
		}
		if got := run(); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: result after a mid-stream Close differs from a clean Session's", i)
		}
	}
}
