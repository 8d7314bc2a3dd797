package sim

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// chain schedules a self-perpetuating event that advances the clock by
// step each firing (step 0 = livelock).
func chain(e *Engine, step Duration) {
	var fn func()
	fn = func() { e.After(step, fn) }
	e.After(step, fn)
}

func TestWatchdogEventBudget(t *testing.T) {
	e := NewEngine()
	e.SetWatchdog(Watchdog{MaxEvents: 100})
	chain(e, Microsecond)
	e.RunUntil(Time(Second))
	err := e.Err()
	if err == nil {
		t.Fatal("no abort despite exceeding the event budget")
	}
	if !errors.Is(err, ErrWatchdog) {
		t.Fatalf("err = %v, want an ErrWatchdog", err)
	}
	if got := e.Processed(); got != 100 {
		t.Fatalf("processed %d events, want exactly the budget of 100", got)
	}
	if !strings.Contains(err.Error(), "event budget") {
		t.Fatalf("diagnostic %q does not name the event budget", err)
	}
	// A stopped engine refuses further work.
	if e.Step() {
		t.Fatal("Step ran an event after the watchdog stopped the engine")
	}
}

func TestWatchdogLivelock(t *testing.T) {
	e := NewEngine()
	e.SetWatchdog(Watchdog{StallEvents: 50})
	chain(e, 0) // reschedules itself at t=now forever
	e.RunUntil(Time(Second))
	err := e.Err()
	if !errors.Is(err, ErrWatchdog) {
		t.Fatalf("err = %v, want an ErrWatchdog", err)
	}
	if !strings.Contains(err.Error(), "livelock") {
		t.Fatalf("diagnostic %q does not name the livelock", err)
	}
}

func TestWatchdogStallResetsOnProgress(t *testing.T) {
	// Bursts of same-instant events below the threshold, separated by
	// clock advances, must not trip the stall detector.
	e := NewEngine()
	e.SetWatchdog(Watchdog{StallEvents: 50})
	var burst func()
	n := 0
	burst = func() {
		for i := 0; i < 40; i++ { // 40 same-instant events per burst
			e.After(0, func() {})
		}
		if n++; n < 10 {
			e.After(Microsecond, burst)
		}
	}
	e.After(0, burst)
	e.RunUntil(Time(Second))
	if err := e.Err(); err != nil {
		t.Fatalf("healthy bursty run aborted: %v", err)
	}
}

func TestWatchdogMaxClock(t *testing.T) {
	e := NewEngine()
	e.SetWatchdog(Watchdog{MaxClock: Time(Millisecond)})
	chain(e, Microsecond)
	e.RunUntil(Time(Second))
	err := e.Err()
	if !errors.Is(err, ErrWatchdog) {
		t.Fatalf("err = %v, want an ErrWatchdog", err)
	}
	if !strings.Contains(err.Error(), "clock budget") {
		t.Fatalf("diagnostic %q does not name the clock budget", err)
	}
	if e.Now() > Time(Millisecond) {
		t.Fatalf("clock ran to %v, past the %v budget", e.Now(), Time(Millisecond))
	}
}

func TestWatchdogContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := NewEngine()
	e.SetWatchdog(Watchdog{Ctx: ctx, CheckEvery: 10})
	chain(e, Microsecond)
	e.RunUntil(Time(Second))
	err := e.Err()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Cancellation is a run-teardown signal, not a sick unit: it must
	// NOT match ErrWatchdog, or callers would contain it instead of
	// failing fast.
	if errors.Is(err, ErrWatchdog) {
		t.Fatal("context cancellation must not register as a watchdog abort")
	}
}

func TestWatchdogWallDeadline(t *testing.T) {
	e := NewEngine()
	e.SetWatchdog(Watchdog{Deadline: time.Now().Add(-time.Second), CheckEvery: 10})
	chain(e, Microsecond)
	e.RunUntil(Time(Second))
	err := e.Err()
	if !errors.Is(err, ErrWatchdog) {
		t.Fatalf("err = %v, want an ErrWatchdog", err)
	}
	if !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("diagnostic %q does not name the deadline", err)
	}
}

// TestWatchdogObservational verifies an armed-but-untripped watchdog
// leaves the event stream untouched: same pops, same clock, same
// processed count as an unguarded engine.
func TestWatchdogObservational(t *testing.T) {
	trace := func(arm bool) (order []int, now Time, nRun uint64) {
		e := NewEngine()
		if arm {
			e.SetWatchdog(Watchdog{
				Ctx:         context.Background(),
				Deadline:    time.Now().Add(time.Hour),
				MaxEvents:   1 << 30,
				MaxClock:    Time(3600 * Second),
				StallEvents: 1 << 20,
				Paranoid:    true,
				CheckEvery:  1,
			})
		}
		rng := NewRNG(7)
		var step func(id int)
		step = func(id int) {
			order = append(order, id)
			if id < 500 {
				e.After(Duration(rng.Intn(100)), func() { step(id + 1) })
				e.After(0, func() { order = append(order, -id) })
			}
		}
		e.After(0, func() { step(1) })
		e.RunUntil(Time(Millisecond))
		if err := e.Err(); err != nil {
			t.Fatalf("healthy run aborted: %v", err)
		}
		return order, e.Now(), e.Processed()
	}
	o1, t1, n1 := trace(false)
	o2, t2, n2 := trace(true)
	if len(o1) != len(o2) || t1 != t2 || n1 != n2 {
		t.Fatalf("watchdog perturbed the run: %d/%v/%d vs %d/%v/%d", len(o1), t1, n1, len(o2), t2, n2)
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("event order diverged at %d: %d vs %d", i, o1[i], o2[i])
		}
	}
}

func TestWatchdogParanoidMonotonicClock(t *testing.T) {
	e := NewEngine()
	e.SetWatchdog(Watchdog{Paranoid: true})
	e.At(Time(Millisecond), func() {})
	e.At(Time(2*Millisecond), func() {})
	if !e.Step() {
		t.Fatal("first event did not run")
	}
	// Corrupt the heap the way a buggy scheduler would: an event
	// stamped before the current clock. At() clamps to now, so reach
	// into the heap directly (same package).
	e.keys[0].at = Time(Microsecond)
	if e.Step() {
		t.Fatal("engine executed an event timestamped before now")
	}
	if e.Pending() != 1 || e.slab[e.keys[0].ord&slotMask].call == nil {
		t.Fatal("refused event was dequeued or lost its payload")
	}
	err := e.Err()
	if !errors.Is(err, ErrWatchdog) {
		t.Fatalf("err = %v, want an ErrWatchdog", err)
	}
	if !strings.Contains(err.Error(), "clock went backwards") {
		t.Fatalf("diagnostic %q does not name the backwards clock", err)
	}
}

func TestSetWatchdogZeroDisarms(t *testing.T) {
	e := NewEngine()
	e.SetWatchdog(Watchdog{MaxEvents: 1})
	e.SetWatchdog(Watchdog{})
	chain(e, Microsecond)
	e.RunUntil(Time(Millisecond))
	if err := e.Err(); err != nil {
		t.Fatalf("disarmed watchdog still aborted: %v", err)
	}
}
