package par

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

func TestGroupRunsAll(t *testing.T) {
	g := Group{Pool: NewPool(0)}
	var n atomic.Int64
	for i := 0; i < 100; i++ {
		g.Go(func() { n.Add(1) })
	}
	g.Wait()
	if n.Load() != 100 {
		t.Fatalf("ran %d tasks, want 100", n.Load())
	}
}

// TestPoolGroupBound checks a Group bound to its own Pool: the pool's
// bound holds.
func TestPoolGroupBound(t *testing.T) {
	p := NewPool(2)
	if p.Workers() != 2 {
		t.Fatalf("Pool.Workers() = %d, want 2", p.Workers())
	}
	g := Group{Pool: p}
	var inFlight, peak atomic.Int64
	for i := 0; i < 50; i++ {
		g.Go(func() {
			c := inFlight.Add(1)
			for {
				pk := peak.Load()
				if c <= pk || peak.CompareAndSwap(pk, c) {
					break
				}
			}
			inFlight.Add(-1)
		})
	}
	g.Wait()
	if peak.Load() > 2 {
		t.Fatalf("observed %d concurrent tasks on a width-2 instance pool", peak.Load())
	}
}

// TestGoCtxSkipsOnCancel: a task whose context is already dead while the
// pool is saturated never runs, and Wait returns without the slot ever
// freeing up.
func TestGoCtxSkipsOnCancel(t *testing.T) {
	p := NewPool(1)
	blocker := Group{Pool: p}
	started := make(chan struct{})
	block := make(chan struct{})
	blocker.Go(func() { close(started); <-block }) // occupy the only slot
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // dead before the task queues: the skip is deterministic
	g := Group{Pool: p}
	var ran atomic.Bool
	g.GoCtx(ctx, func() { ran.Store(true) })

	done := make(chan struct{})
	go func() { g.Wait(); close(done) }()
	select {
	case <-done: // resolved while the slot was still held
	case <-time.After(5 * time.Second):
		t.Fatal("Wait hung: cancelled GoCtx task never resolved")
	}
	if ran.Load() {
		t.Error("GoCtx ran its task despite the cancelled context")
	}
	close(block)
	blocker.Wait()
}

// TestGoCtxRunsWithLiveContext: with a live context GoCtx behaves as Go.
func TestGoCtxRunsWithLiveContext(t *testing.T) {
	g := Group{Pool: NewPool(0)}
	var n atomic.Int64
	for i := 0; i < 20; i++ {
		g.GoCtx(context.Background(), func() { n.Add(1) })
	}
	g.Wait()
	if n.Load() != 20 {
		t.Fatalf("ran %d tasks, want 20", n.Load())
	}
}

func TestNestedGroupsDoNotDeadlock(t *testing.T) {
	// An orchestrating goroutine (plain go + Wait) fans leaf tasks into the
	// shared pool; only leaves hold slots, so a width-1 pool must not
	// deadlock.
	p := NewPool(1)
	outer := Group{Pool: p}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 3; i++ {
			outer.Go(func() {})
		}
		outer.Wait()
	}()
	inner := Group{Pool: p}
	for i := 0; i < 3; i++ {
		inner.Go(func() {})
	}
	inner.Wait()
	<-done
}
