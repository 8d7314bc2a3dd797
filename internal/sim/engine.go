package sim

import "fmt"

// Callback is the engine's event entry point: a persistent function
// that receives the argument and generation it was scheduled with.
// Hot paths schedule a long-lived Callback via AtCall/AfterCall
// instead of building a fresh closure per event — the engine stores
// arg and gen in the event's slab slot, and pointer-shaped args
// (pointers, funcs, maps, channels) ride in the any without allocating,
// so steady-state timer scheduling is allocation-free. gen is an opaque
// invalidation token: callbacks that can go stale compare it against
// their owner's current generation and return early on a mismatch.
type Callback func(arg any, gen uint64)

// runThunk adapts a plain func() scheduled through At/After to the
// Callback shape. A func() stored in an any is pointer-shaped, so the
// adaptation costs nothing.
func runThunk(arg any, _ uint64) { arg.(func())() }

// A key's ord packs the event's scheduling sequence number above its
// slab slot: ord = seq<<slotBits | slot. seq is unique per engine, so
// ordering keys by (at, ord) is exactly ordering events by (at, seq),
// and the slot bits never decide a comparison.
const (
	slotBits = 24
	slotMask = 1<<slotBits - 1
	maxSlots = 1 << slotBits        // pending-event capacity
	maxSeq   = 1 << (64 - slotBits) // scheduling capacity over a run
)

// key is one heap entry. Events at the same instant fire in scheduling
// order (the seq inside ord breaks ties) so runs are deterministic.
type key struct {
	at  Time
	ord uint64 // seq<<slotBits | slot
}

// less orders keys by (at, ord), which is (at, seq).
func (a key) less(b key) bool {
	return a.at < b.at || a.at == b.at && a.ord < b.ord
}

// payload is what an event runs: a slab slot, owned by exactly one
// pending key.
type payload struct {
	call Callback
	arg  any
	gen  uint64
}

// Engine is a deterministic discrete-event simulator. The zero value is
// ready to use; time starts at 0.
//
// The pending-event queue is an inlined 4-ary min-heap of keys, ordered
// by (at, seq), plus a payload slab indexed by the slot packed into
// each key. Keys carry no pointers, so a sift moves 16 bytes per level
// with no GC write barriers, a node's four children fit in 64 bytes,
// and the collector never scans the heap; a payload is written once
// when its event is scheduled and read once when it runs. Freed slots
// go on a LIFO freelist, so the slab never grows past the peak number
// of pending events and slot reuse is as reproducible as the event
// order itself. The wide fan-out halves the sift-down depth — the hot
// operation, since the engine's steady state is pop-one, push-a-few.
// Because (at, seq) is a total order, any heap shape pops events in
// exactly the same sequence.
type Engine struct {
	now  Time
	seq  uint64
	keys []key     // 4-ary min-heap, root at index 0
	slab []payload // indexed by the slot in each key's ord
	free []uint32  // LIFO freelist of slab slots
	nRun uint64

	wd      *watchdogState // nil when no watchdog is armed
	stopErr error          // first abort/cancel reason; sticky
}

// NewEngine returns an engine with its clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Processed reports how many events have been executed so far.
func (e *Engine) Processed() uint64 { return e.nRun }

// Pending reports how many events are waiting to run.
func (e *Engine) Pending() int { return len(e.keys) }

// push inserts k, sifting the hole up instead of swapping: each level
// does one compare and one move.
func (e *Engine) push(k key) {
	h := append(e.keys, key{})
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !k.less(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = k
	e.keys = h
}

// pop removes and returns the minimum key. The last key is sifted down
// into the root hole; moving it (rather than swapping at each level)
// keeps the common pop-then-push pattern at one write per level plus
// the final placement.
func (e *Engine) pop() key {
	h := e.keys
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	e.keys = h
	if n > 0 {
		// Sift last down from the root.
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			m := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if h[j].less(h[m]) {
					m = j
				}
			}
			if !h[m].less(last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	return top
}

// alloc stores p in a free slab slot, reusing the most recently freed
// one, and returns the slot.
func (e *Engine) alloc(p payload) uint64 {
	if n := len(e.free) - 1; n >= 0 {
		slot := e.free[n]
		e.free = e.free[:n]
		e.slab[slot] = p
		return uint64(slot)
	}
	slot := len(e.slab)
	if slot >= maxSlots {
		panic(fmt.Sprintf("sim: more than %d events pending (slot limit 1<<%d)", maxSlots, slotBits))
	}
	e.slab = append(e.slab, p)
	return uint64(slot)
}

// At schedules fn to run at virtual time t. Scheduling in the past runs
// the event at the current time (never before now).
func (e *Engine) At(t Time, fn func()) {
	e.AtCall(t, runThunk, fn, 0)
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.AtCall(e.now.Add(d), runThunk, fn, 0)
}

// AtCall schedules call(arg, gen) at virtual time t. Scheduling in the
// past runs the event at the current time (never before now). This is
// the allocation-free scheduling path: call is expected to be a
// persistent function (package-level or built once per component), and
// arg/gen carry the per-event state that a closure would otherwise
// capture.
func (e *Engine) AtCall(t Time, call Callback, arg any, gen uint64) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	if e.seq >= maxSeq {
		panic(fmt.Sprintf("sim: more than %d events scheduled (sequence limit 1<<%d)", uint64(maxSeq-1), 64-slotBits))
	}
	slot := e.alloc(payload{call: call, arg: arg, gen: gen})
	e.push(key{at: t, ord: e.seq<<slotBits | slot})
}

// AfterCall schedules call(arg, gen) at d after the current time.
func (e *Engine) AfterCall(d Duration, call Callback, arg any, gen uint64) {
	if d < 0 {
		d = 0
	}
	e.AtCall(e.now.Add(d), call, arg, gen)
}

// Step runs the single earliest pending event. It reports whether an
// event was run. A stopped engine (see Err) runs nothing.
func (e *Engine) Step() bool {
	if len(e.keys) == 0 || e.stopErr != nil {
		return false
	}
	if e.wd != nil && !e.admit() {
		return false
	}
	k := e.pop()
	slot := uint32(k.ord & slotMask)
	p := e.slab[slot]
	e.slab[slot] = payload{} // let the GC drop arg before the callback runs
	e.free = append(e.free, slot)
	e.now = k.at
	e.nRun++
	p.call(p.arg, p.gen)
	return true
}

// PeekNext reports the timestamp of the earliest pending event. ok is
// false when no events are pending. Shard coordinators use this on the
// global engine to compute the next conservative window edge.
func (e *Engine) PeekNext() (Time, bool) {
	if len(e.keys) == 0 {
		return 0, false
	}
	return e.keys[0].at, true
}

// RunUntil executes events in timestamp order until the clock reaches t
// or no events remain. The clock is left at t when the horizon is hit
// with events still pending, so follow-up scheduling is relative to the
// horizon.
func (e *Engine) RunUntil(t Time) {
	for len(e.keys) > 0 && e.stopErr == nil && e.keys[0].at <= t {
		e.Step()
	}
	if e.stopErr == nil && e.now < t {
		e.now = t
	}
}

// RunBefore executes events strictly earlier than t and leaves the
// clock at t; events at exactly t stay pending. Sharded runs advance
// each shard through the half-open window [now, t) so that barrier
// events scheduled on the global engine at t observe every shard with
// its pre-t work complete but its at-t work unrun — matching the
// unsharded order, where globally scheduled events carry smaller
// sequence numbers than any event scheduled during the run.
func (e *Engine) RunBefore(t Time) {
	for len(e.keys) > 0 && e.stopErr == nil && e.keys[0].at < t {
		e.Step()
	}
	if e.stopErr == nil && e.now < t {
		e.now = t
	}
}

// Run executes events until none remain. Use with care: workloads that
// resubmit forever never drain; prefer RunUntil.
func (e *Engine) Run() {
	for e.Step() {
	}
}
