package link

import (
	"bufio"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// released records what a ParkTable gave up, and whether the value was
// still in the table when its release ran.
type released struct {
	mu      sync.Mutex
	vals    []int
	expired []bool
	inTable []bool
	ch      chan struct{}
}

func newTable(t *testing.T, grace time.Duration) (*ParkTable[int], *released) {
	t.Helper()
	r := &released{ch: make(chan struct{}, 16)}
	var pt *ParkTable[int]
	pt = NewParkTable(grace, func(v int, expired bool) {
		r.mu.Lock()
		r.vals = append(r.vals, v)
		r.expired = append(r.expired, expired)
		r.inTable = append(r.inTable, pt.Len() != 0)
		r.mu.Unlock()
		r.ch <- struct{}{}
	})
	return pt, r
}

func TestParkTableExpiryRunsAfterRemoval(t *testing.T) {
	pt, r := newTable(t, 10*time.Millisecond)
	pt.Park("a", 1)
	select {
	case <-r.ch:
	case <-time.After(5 * time.Second):
		t.Fatal("parked value never expired")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.vals) != 1 || r.vals[0] != 1 || !r.expired[0] {
		t.Fatalf("released %v expired %v, want [1] [true]", r.vals, r.expired)
	}
	if r.inTable[0] {
		t.Error("release ran while the expired entry was still in the table")
	}
	if v := pt.Take("a"); v != 0 {
		t.Errorf("Take after expiry = %d, want the zero value", v)
	}
}

func TestParkTableTakeDisarmsExpiry(t *testing.T) {
	pt, r := newTable(t, 20*time.Millisecond)
	pt.Park("a", 7)
	if v := pt.Take("a"); v != 7 {
		t.Fatalf("Take = %d, want 7", v)
	}
	if pt.Len() != 0 {
		t.Fatalf("Len after Take = %d, want 0", pt.Len())
	}
	select {
	case <-r.ch:
		t.Fatal("a taken value was released")
	case <-time.After(80 * time.Millisecond):
	}
}

// TestParkTableStaleTimerSparesRepark drives the expiry a timer that lost
// its Stop race would run: after a Take and a fresh Park of the same
// token, the old entry's expiry must not touch the new one.
func TestParkTableStaleTimerSparesRepark(t *testing.T) {
	pt, r := newTable(t, time.Hour)
	pt.Park("a", 1)
	stale := pt.entries["a"]
	pt.Park("a", pt.Take("a"))
	pt.expire("a", stale)
	if pt.Len() != 1 {
		t.Fatalf("Len = %d, want the re-parked entry kept", pt.Len())
	}
	select {
	case <-r.ch:
		t.Fatal("a stale expiry released the re-parked value")
	default:
	}
	pt.Close()
}

func TestParkTableClose(t *testing.T) {
	pt, r := newTable(t, time.Hour)
	pt.Park("a", 1)
	pt.Park("b", 2)
	pt.Close()
	pt.Park("c", 3) // after Close: released at once
	for range 3 {
		<-r.ch
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	sum := 0
	for i, v := range r.vals {
		sum += v
		if r.expired[i] {
			t.Errorf("value %d released as expired by Close", v)
		}
	}
	if sum != 6 || pt.Len() != 0 {
		t.Errorf("released %v with %d left parked, want 1, 2 and 3 with none left", r.vals, pt.Len())
	}
}

func TestReadRequestLimit(t *testing.T) {
	ok := strings.Repeat("x", RequestLimit)
	line, err := ReadRequest(bufio.NewReader(strings.NewReader(ok + "\nrest")))
	if err != nil || string(line) != ok {
		t.Fatalf("line at the limit: %d bytes, %v; want it whole", len(line), err)
	}
	_, err = ReadRequest(bufio.NewReader(strings.NewReader(ok + "x\n")))
	if !errors.Is(err, ErrRequestTooLarge) {
		t.Errorf("line over the limit: err = %v, want ErrRequestTooLarge", err)
	}
}

// TestLingerWithoutCloseWrite: a conn that cannot half-close is left for
// the caller to close, without blocking on its input.
func TestLingerWithoutCloseWrite(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	done := make(chan struct{})
	go func() { Linger(a); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Linger blocked on a conn without CloseWrite")
	}
}
