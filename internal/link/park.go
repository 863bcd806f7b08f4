package link

import (
	"sync"
	"time"
)

// ParkTable holds interrupted sessions under their resume tokens for a
// grace window. A resume Takes its session back; an entry nobody takes
// within the window expires; Close gives up everything still parked when
// its owner shuts down. The table hands every value it gives up without a
// Take to its release function, so the owner frees a session's resources
// in one place.
type ParkTable[V any] struct {
	grace   time.Duration
	release func(v V, expired bool)

	mu      sync.Mutex
	entries map[string]*parked[V]
	closed  bool
}

// parked is one Park of a value. Each Park makes a fresh entry, so the
// entry's identity is the generation its expiry timer guards: a timer
// that lost its Stop race to a Take finds its entry gone, or replaced by
// a later Park, and does nothing.
type parked[V any] struct {
	v     V
	timer *time.Timer
}

// NewParkTable returns an empty table whose entries expire after grace.
// release receives every value the table gives up without a Take, and
// runs after the value has left the table: expired reports a lapsed grace
// window; otherwise the table was closed, before or after the Park.
func NewParkTable[V any](grace time.Duration, release func(v V, expired bool)) *ParkTable[V] {
	return &ParkTable[V]{grace: grace, release: release, entries: make(map[string]*parked[V])}
}

// Park holds v under token for the grace window. After Close, v is
// released at once instead: the owner is gone, so no resume can arrive.
func (t *ParkTable[V]) Park(token string, v V) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		t.release(v, false)
		return
	}
	e := &parked[V]{v: v}
	e.timer = time.AfterFunc(t.grace, func() { t.expire(token, e) })
	t.entries[token] = e
	t.mu.Unlock()
}

// expire removes e if it is still the entry parked under token, then
// releases its value.
func (t *ParkTable[V]) expire(token string, e *parked[V]) {
	t.mu.Lock()
	if t.entries[token] != e {
		t.mu.Unlock()
		return
	}
	delete(t.entries, token)
	t.mu.Unlock()
	t.release(e.v, true)
}

// Take claims the value parked under token, removing it from the table
// and disarming its expiry. It returns the zero V when nothing is parked
// under token. The caller owns the value: it must consume it, park it
// again, or free it.
func (t *ParkTable[V]) Take(token string) V {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.entries[token]
	if e == nil {
		var zero V
		return zero
	}
	delete(t.entries, token)
	e.timer.Stop()
	return e.v
}

// Len returns the number of values parked now.
func (t *ParkTable[V]) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries)
}

// Close releases every parked value and makes later Parks release theirs
// at once.
func (t *ParkTable[V]) Close() {
	t.mu.Lock()
	t.closed = true
	es := make([]*parked[V], 0, len(t.entries))
	for _, e := range t.entries {
		es = append(es, e)
	}
	clear(t.entries)
	t.mu.Unlock()
	for _, e := range es {
		e.timer.Stop()
		t.release(e.v, false)
	}
}
