package sim

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("new engine clock = %v, want 0", e.Now())
	}
	if e.Pending() != 0 || e.Processed() != 0 {
		t.Fatalf("new engine has pending/processed events")
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran out of order: %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %v, want 30", e.Now())
	}
}

func TestEngineFIFOWithinSameInstant(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", order)
		}
	}
}

func TestEnginePastSchedulingClamps(t *testing.T) {
	e := NewEngine()
	fired := Time(-1)
	e.At(100, func() {
		e.At(50, func() { fired = e.Now() }) // in the past
	})
	e.Run()
	if fired != 100 {
		t.Fatalf("past event fired at %v, want clamped to 100", fired)
	}
}

func TestEngineRunUntilHorizon(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.At(10, func() { ran++ })
	e.At(20, func() { ran++ })
	e.At(30, func() { ran++ })
	e.RunUntil(20)
	if ran != 2 {
		t.Fatalf("RunUntil(20) ran %d events, want 2", ran)
	}
	if e.Now() != 20 {
		t.Fatalf("clock after RunUntil = %v, want 20", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	e.RunUntil(100)
	if ran != 3 || e.Now() != 100 {
		t.Fatalf("after second RunUntil: ran=%d now=%v", ran, e.Now())
	}
}

func TestEngineAfterIsRelative(t *testing.T) {
	e := NewEngine()
	var at Time
	e.At(500, func() {
		e.After(25, func() { at = e.Now() })
	})
	e.Run()
	if at != 525 {
		t.Fatalf("After fired at %v, want 525", at)
	}
}

func TestEngineCascade(t *testing.T) {
	// Events scheduling events: a chain of N steps lands at N.
	e := NewEngine()
	const n = 1000
	count := 0
	var step func()
	step = func() {
		count++
		if count < n {
			e.After(1, step)
		}
	}
	e.After(1, step)
	e.Run()
	if count != n || e.Now() != n {
		t.Fatalf("cascade count=%d now=%v, want %d/%d", count, e.Now(), n, n)
	}
}

func TestEngineNegativeAfterClamps(t *testing.T) {
	e := NewEngine()
	fired := false
	e.At(10, func() {
		e.After(-5, func() { fired = true })
	})
	e.RunUntil(10)
	if !fired {
		t.Fatal("negative After never fired at current time")
	}
}

func TestTimeArithmetic(t *testing.T) {
	tm := Time(1_000_000)
	if tm.Add(500) != 1_000_500 {
		t.Fatalf("Add broken")
	}
	if tm.Sub(Time(400_000)) != 600_000 {
		t.Fatalf("Sub broken")
	}
	if Second.Seconds() != 1.0 {
		t.Fatalf("Seconds broken")
	}
	if Millisecond.Millis() != 1.0 || Microsecond.Micros() != 1.0 {
		t.Fatalf("unit conversions broken")
	}
}

func TestDurationString(t *testing.T) {
	cases := map[Duration]string{
		2 * Second:      "2.000s",
		3 * Millisecond: "3.000ms",
		7 * Microsecond: "7.000us",
		42:              "42ns",
	}
	for d, want := range cases {
		if got := d.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(d), got, want)
		}
	}
}

func TestDurationOfBytes(t *testing.T) {
	if d := DurationOfBytes(1<<30, float64(1<<30)); d != Second {
		t.Fatalf("1 GiB at 1 GiB/s = %v, want 1s", d)
	}
	if d := DurationOfBytes(0, 100); d != 0 {
		t.Fatalf("zero bytes = %v, want 0", d)
	}
	if d := DurationOfBytes(100, 0); d <= 0 {
		t.Fatalf("zero rate should return a huge sentinel, got %v", d)
	}
}

func TestEngineEventOrderProperty(t *testing.T) {
	// Property: for any set of scheduled times, execution times are
	// non-decreasing.
	f := func(times []uint16) bool {
		e := NewEngine()
		var seen []Time
		for _, tt := range times {
			at := Time(tt)
			e.At(at, func() { seen = append(seen, e.Now()) })
		}
		e.Run()
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return len(seen) == len(times)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestEngineHeapAgainstReferenceSort drives the inlined 4-ary key
// heap directly through a long random push/pop interleaving and checks
// every popped key against a reference minimum search / sort over a
// mirrored slice — the property that the specialized heap pops in
// exactly (at, seq) order. Slots are random, so a heap that let the
// slot bits decide an ordering would fail.
func TestEngineHeapAgainstReferenceSort(t *testing.T) {
	rng := NewRNG(42)
	e := NewEngine()
	var mirror []key
	var seq uint64
	for op := 0; op < 20000; op++ {
		if len(mirror) == 0 || rng.Uint64()%3 != 0 {
			seq++
			k := key{at: Time(rng.Uint64() % 1024), ord: seq<<slotBits | rng.Uint64()&slotMask}
			e.push(k)
			mirror = append(mirror, k)
			continue
		}
		mi := 0
		for i := range mirror {
			if mirror[i].less(mirror[mi]) {
				mi = i
			}
		}
		want := mirror[mi]
		mirror = append(mirror[:mi], mirror[mi+1:]...)
		if got := e.pop(); got != want {
			t.Fatalf("op %d: popped (at=%v seq=%d), reference min (at=%v seq=%d)",
				op, got.at, got.ord>>slotBits, want.at, want.ord>>slotBits)
		}
	}
	// Drain the remainder against a full reference sort by (at, seq).
	sort.Slice(mirror, func(i, j int) bool {
		if mirror[i].at != mirror[j].at {
			return mirror[i].at < mirror[j].at
		}
		return mirror[i].ord>>slotBits < mirror[j].ord>>slotBits
	})
	for i, want := range mirror {
		if got := e.pop(); got != want {
			t.Fatalf("drain %d: popped (at=%v seq=%d), want (at=%v seq=%d)",
				i, got.at, got.ord>>slotBits, want.at, want.ord>>slotBits)
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("heap not empty after drain: %d pending", e.Pending())
	}
}

// TestEngineSeqOverflowPanics pins the guard on the packed ord: the
// sequence number must never wrap into the slot bits.
func TestEngineSeqOverflowPanics(t *testing.T) {
	e := NewEngine()
	e.seq = maxSeq - 2
	e.AtCall(1, func(any, uint64) {}, nil, 0) // takes seq maxSeq-1, the last
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, fmt.Sprintf("sequence limit 1<<%d", 64-slotBits)) {
			t.Fatalf("panic = %q, want a diagnostic naming the sequence limit", msg)
		}
		if e.Pending() != 1 {
			t.Fatalf("overflowing schedule changed the queue: %d pending", e.Pending())
		}
	}()
	e.AtCall(2, func(any, uint64) {}, nil, 0)
	t.Fatal("scheduling past the sequence limit did not panic")
}

// fuzzToken is a fuzzed event's argument: a distinct pointer per
// event, so a callback handed another event's slot sees the wrong one.
type fuzzToken struct{ seq uint64 }

// FuzzEngineSchedule drives interleaved AtCall, Step, RunUntil,
// RunBefore and PeekNext from fuzz bytes against a reference list of
// pending (at, seq) pairs. It asserts that events pop in (at, seq)
// order, that every callback receives exactly the arg and gen it was
// scheduled with (slot aliasing would hand it another event's), and
// that the slab never grows past the peak Pending count.
func FuzzEngineSchedule(f *testing.F) {
	f.Add([]byte{0, 5, 0, 3, 1, 0, 9, 4, 2, 7, 0, 0, 3, 1, 1})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 1, 4, 1, 1, 1})
	seed := NewRNG(7)
	long := make([]byte, 600)
	for i := range long {
		long[i] = byte(seed.Uint64())
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, ops []byte) {
		type ref struct {
			at  Time
			seq uint64
		}
		e := NewEngine()
		var (
			pending []ref
			tokens  = map[uint64]*fuzzToken{}
			nextSeq uint64
			peak    int
			cb      Callback
		)
		schedule := func(at Time) {
			nextSeq++
			tok := &fuzzToken{seq: nextSeq}
			tokens[nextSeq] = tok
			pending = append(pending, ref{at: at, seq: nextSeq})
			e.AtCall(at, cb, tok, nextSeq)
			if e.Pending() > peak {
				peak = e.Pending()
			}
		}
		// next indexes the reference's earliest pending (at, seq).
		next := func() int {
			mi := 0
			for i, r := range pending {
				if r.at < pending[mi].at || r.at == pending[mi].at && r.seq < pending[mi].seq {
					mi = i
				}
			}
			return mi
		}
		cb = func(arg any, gen uint64) {
			tok, ok := arg.(*fuzzToken)
			if !ok || tok != tokens[gen] || tok.seq != gen {
				t.Fatalf("callback got arg %v gen %d, not the pair it was scheduled with", arg, gen)
			}
			delete(tokens, gen)
			mi := next()
			if want := pending[mi]; want.seq != gen || want.at != e.Now() {
				t.Fatalf("ran seq %d at %v, reference next is seq %d at %v", gen, e.Now(), want.seq, want.at)
			}
			pending = append(pending[:mi], pending[mi+1:]...)
			// Every third event schedules a child from inside its
			// callback, right after its own slot was freed.
			if gen%3 == 0 {
				schedule(e.Now().Add(Duration(gen % 5)))
			}
		}
		for i := 0; i+1 < len(ops); i += 2 {
			d := Duration(ops[i+1] % 16)
			switch ops[i] % 5 {
			case 0:
				schedule(e.Now().Add(d))
			case 1:
				want := len(pending) > 0
				if e.Step() != want {
					t.Fatalf("Step ran=%v, reference had pending=%v", !want, want)
				}
			case 2:
				h := e.Now().Add(d)
				e.RunUntil(h)
				for _, r := range pending {
					if r.at <= h {
						t.Fatalf("RunUntil(%v) left seq %d at %v", h, r.seq, r.at)
					}
				}
			case 3:
				h := e.Now().Add(d)
				e.RunBefore(h)
				for _, r := range pending {
					if r.at < h {
						t.Fatalf("RunBefore(%v) left seq %d at %v", h, r.seq, r.at)
					}
				}
			case 4:
				at, ok := e.PeekNext()
				if ok != (len(pending) > 0) {
					t.Fatalf("PeekNext ok=%v with %d pending", ok, len(pending))
				}
				if ok && at != pending[next()].at {
					t.Fatalf("PeekNext = %v, reference next is at %v", at, pending[next()].at)
				}
			}
			if e.Pending() != len(pending) {
				t.Fatalf("Pending = %d, reference %d", e.Pending(), len(pending))
			}
			if len(e.slab) > peak || len(e.slab) != e.Pending()+len(e.free) {
				t.Fatalf("slab %d slots (free %d, pending %d), peak pending %d",
					len(e.slab), len(e.free), e.Pending(), peak)
			}
		}
	})
}
