package main

import (
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// Linux CPU-time clocks (clock_gettime(2)). Each stands still while its
// process or thread waits for a CPU; a kernel built with
// CONFIG_PARAVIRT_TIME_ACCOUNTING also leaves out the time the host took
// the vCPU away (steal).
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID: all the process's threads
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID: the calling OS thread
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic("clock_gettime: " + e.Error())
	}
	return time.Duration(ts.Nano())
}

// refNominal is the reference task's median time on the host the
// benchmark was tuned on: a 2-vCPU VM on an Intel Xeon, with the host
// quiet. A time scaled by refNominal over the run's own reference time
// reads in milliseconds of that host.
const refNominal = 18 * time.Millisecond

// refTask is a fixed piece of work that no change to the program can
// alter: fill a 1 MiB buffer, insert an eighth of it into an
// open-addressing table, gather from it at random, and sort it. Like a
// query it mixes streaming, random access and branchy compares over a
// working set larger than the core's own caches, so a host that runs
// it slower runs queries slower by about as much. It allocates nothing,
// so the garbage collector never runs on its account, and an untimed
// first fill brings its buffer into the caches, so what the program
// left there does not change the timed part.
type refTask struct {
	buf, table []uint64
	sink       uint64
}

func newRefTask() *refTask {
	return &refTask{buf: make([]uint64, 1<<17), table: make([]uint64, 1<<15)}
}

// time runs the task once and returns the calling thread's CPU time for
// it. The caller locks its goroutine to the thread.
func (r *refTask) time() time.Duration {
	r.fill()
	start := cpuClock(clockThreadCPU)
	r.fill()
	clear(r.table)
	mask := uint64(len(r.table) - 1)
	for _, v := range r.buf[:len(r.buf)/8] {
		for h := v * 0x9e3779b97f4a7c15 >> 40 & mask; ; h = (h + 1) & mask {
			if r.table[h] == 0 || r.table[h] == v {
				r.table[h] = v
				break
			}
		}
	}
	var acc uint64
	n := uint64(len(r.buf))
	for _, v := range r.buf {
		acc += r.buf[(v>>3)%n]
	}
	slices.Sort(r.buf)
	r.sink += acc + r.buf[0]
	return cpuClock(clockThreadCPU) - start
}

// fill writes the same xorshift sequence (never 0, the table's empty
// mark) into the buffer.
func (r *refTask) fill() {
	x := uint64(88172645463325252)
	for i := range r.buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		r.buf[i] = x | 1
	}
}
