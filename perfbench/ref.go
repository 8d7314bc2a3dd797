package main

import (
	"fmt"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark host is shared, and its speed for this kind of code
// drifts by tens of percent, up to a factor of two, over seconds and
// minutes, while a tight ALU loop (host.calib_ms) moves much less. A
// fixed reference workload that is branchy and spills out of the L2
// cache, like the simulator, slows down with it. refClock interleaves
// that reference with the cells, and the end-to-end times are
// reported in units of its mean time. The reference uses no isolbench
// code, so a change to the simulator moves the measured time and
// leaves the unit alone.

// refInts is the reference's size: sorting 1 Mi ints (8 MiB), which
// tracked the simulator better than sorting 2 MiB.
const refInts = 1 << 20

// refEvery is the least wall time between two reference samples.
const refEvery = 1500 * time.Millisecond

// refClock times the reference between a pass's phases and from
// fleet-10k's churn callbacks.
type refClock struct {
	base, buf []int
	total     time.Duration
	n         int
	last      time.Time // end of the latest sample
}

func newRefClock() *refClock {
	r := &refClock{base: offHeapInts(refInts), buf: offHeapInts(refInts)}
	x := uint64(88172645463325252)
	for i := range r.base {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		r.base[i] = int(x >> 1)
	}
	return r
}

// sample times one reference run: copy the fixed input and sort it.
// It allocates nothing, so it leaves the runtime counters alone.
func (r *refClock) sample() time.Duration {
	t0 := time.Now()
	copy(r.buf, r.base)
	slices.Sort(r.buf)
	r.last = time.Now()
	d := r.last.Sub(t0)
	r.total += d
	r.n++
	return d
}

// tick samples if refEvery has passed since the latest sample and
// returns the wall time it spent; a nil clock never samples.
func (r *refClock) tick() time.Duration {
	if r == nil || (r.n > 0 && time.Since(r.last) < refEvery) {
		return 0
	}
	return r.sample()
}

// mean is the mean sample time (0 before any sample).
func (r *refClock) mean() time.Duration {
	if r.n == 0 {
		return 0
	}
	return r.total / time.Duration(r.n)
}

// offHeapInts maps n ints outside the Go heap. On the heap, the
// reference's 16 MiB would raise the collector's target and cut
// closed-mix's GC cycles by more than half, changing what is measured.
func offHeapInts(n int) []int {
	b, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(int(0))), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("perfbench: mapping the reference's memory: %v", err))
	}
	return unsafe.Slice((*int)(unsafe.Pointer(&b[0])), n)
}
