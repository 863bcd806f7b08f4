// Package par provides the bounded worker pools that the experiment
// pipeline uses to run simulations and analyses concurrently, and SPSC,
// the ring that decouples a simulator from its analyses.
//
// A Pool is one bounded set of worker slots, owned by whoever created it
// (each tempstream.Runner owns one); there is no process-wide pool. All
// heavy leaf tasks scheduled on a pool share its semaphore, so nested
// fan-out (a Runner's RunAll over apps, each Run over machines) cannot
// oversubscribe the CPUs: orchestrating goroutines are cheap and
// unbounded, while at most Workers() leaf tasks execute simultaneously.
// Tasks must be independent — a task must never block waiting for
// another task's result while holding its worker slot.
package par

import (
	"context"
	"runtime"
	"sync"
)

// Pool is a bounded set of worker slots. Create with NewPool; schedule
// through a Group bound to it. A Pool has no Close: it holds no
// resources beyond a channel and is garbage-collected with its last
// Group.
type Pool struct {
	sem chan struct{}
}

// NewPool returns a pool bounding concurrently executing tasks to n.
// n < 1 selects the default of GOMAXPROCS.
func NewPool(n int) *Pool {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Pool{sem: make(chan struct{}, n)}
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return cap(p.sem) }

// Group runs tasks on a pool and waits for them. Set Pool before the
// first Go call; a Group without one panics. Group does not propagate
// panics across goroutines; tasks are expected not to fail (they report
// through their own results).
type Group struct {
	// Pool is the pool the group's tasks hold slots of.
	Pool *Pool
	wg   sync.WaitGroup
}

// Go schedules fn. The goroutine starts immediately but fn only runs once
// a worker slot is free.
func (g *Group) Go(fn func()) {
	s := g.Pool.sem
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		s <- struct{}{}
		defer func() { <-s }()
		fn()
	}()
}

// GoCtx schedules fn like Go, but the wait for a worker slot is bound to
// ctx: if ctx is cancelled before a slot frees up, fn never runs and the
// task completes immediately (Wait still accounts for it). Callers that
// need to distinguish "ran" from "skipped" check ctx.Err after Wait —
// a skip can only happen on a cancelled context.
func (g *Group) GoCtx(ctx context.Context, fn func()) {
	s := g.Pool.sem
	g.wg.Add(1)
	done := ctx.Done()
	go func() {
		defer g.wg.Done()
		select {
		case s <- struct{}{}:
		case <-done:
			return
		}
		defer func() { <-s }()
		fn()
	}()
}

// Wait blocks until every task scheduled through Go or GoCtx has
// finished (or was skipped by its cancelled context).
func (g *Group) Wait() { g.wg.Wait() }
