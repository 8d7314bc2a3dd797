package host

import (
	"fmt"
	"testing"

	"isolbench/internal/sim"
)

func TestServerFIFO(t *testing.T) {
	eng := sim.NewEngine()
	s := NewServer(eng, "core0")
	var done []sim.Time
	s.Exec(100, func() { done = append(done, eng.Now()) })
	s.Exec(50, func() { done = append(done, eng.Now()) })
	s.Exec(25, func() { done = append(done, eng.Now()) })
	eng.Run()
	if len(done) != 3 || done[0] != 100 || done[1] != 150 || done[2] != 175 {
		t.Fatalf("FIFO completion times = %v", done)
	}
	if s.BusyTime() != 175 {
		t.Fatalf("busy = %v", s.BusyTime())
	}
	if s.Tasks() != 3 {
		t.Fatalf("tasks = %d", s.Tasks())
	}
}

// TestServerExecOwned checks that the callback form shares the
// FIFO timeline with Exec and hands each completion its own arg.
func TestServerExecOwned(t *testing.T) {
	eng := sim.NewEngine()
	s := NewServer(eng, "c")
	var got []string
	call := func(arg any, gen uint64) {
		got = append(got, fmt.Sprintf("%s@%d/%d", *arg.(*string), eng.Now(), gen))
	}
	a, b := "a", "b"
	if d := s.ExecOwned(100, 0, call, &a); d != 0 {
		t.Fatalf("idle server delay = %v", d)
	}
	s.Exec(50, func() { got = append(got, fmt.Sprintf("thunk@%d", eng.Now())) })
	if d := s.ExecOwned(25, 0, call, &b); d != 150 {
		t.Fatalf("busy server delay = %v, want 150", d)
	}
	eng.Run()
	if want := "[a@100/0 thunk@150 b@175/0]"; fmt.Sprint(got) != want {
		t.Fatalf("completions = %v, want %s", got, want)
	}
	if s.Tasks() != 3 || s.BusyTime() != 175 {
		t.Fatalf("tasks=%d busy=%v, want 3 and 175", s.Tasks(), s.BusyTime())
	}
}

func TestServerQueueDelayReturned(t *testing.T) {
	eng := sim.NewEngine()
	s := NewServer(eng, "c")
	if d := s.Exec(100, nil); d != 0 {
		t.Fatalf("idle server delay = %v", d)
	}
	if d := s.Exec(10, nil); d != 100 {
		t.Fatalf("busy server delay = %v", d)
	}
	if b := s.Backlog(); b != 110 {
		t.Fatalf("backlog = %v", b)
	}
}

func TestServerIdleGap(t *testing.T) {
	eng := sim.NewEngine()
	s := NewServer(eng, "c")
	s.Exec(10, nil)
	eng.RunUntil(1000)
	// New work after an idle gap starts immediately.
	if d := s.Exec(5, nil); d != 0 {
		t.Fatalf("post-idle delay = %v", d)
	}
	if s.Backlog() != 5 {
		t.Fatalf("backlog = %v", s.Backlog())
	}
}

func TestServerNegativeCost(t *testing.T) {
	eng := sim.NewEngine()
	s := NewServer(eng, "c")
	s.Exec(-50, nil)
	if s.BusyTime() != 0 {
		t.Fatal("negative cost should clamp to zero")
	}
}

func TestCPURoundRobin(t *testing.T) {
	c := NewCPU(sim.NewEngine(), 4)
	if c.Core(0) != c.Core(4) || c.Core(1) == c.Core(2) {
		t.Fatal("core modulo mapping broken")
	}
	if c.Core(-3) == nil {
		t.Fatal("negative index must not panic")
	}
	if len(NewCPU(sim.NewEngine(), 0).Cores) != 1 {
		t.Fatal("zero cores should clamp to 1")
	}
}

func TestAccounting(t *testing.T) {
	c := NewCPU(sim.NewEngine(), 1)
	a := c.NewAccount(1.06, 31700)
	a.AccountIO()
	a.AccountIO()
	if c.IOs() != 2 {
		t.Fatalf("ios = %d", c.IOs())
	}
	if v := c.ContextSwitchesPerIO(); v < 1.059 || v > 1.061 {
		t.Fatalf("cs/io = %v", v)
	}
	if v := c.CyclesPerIO(); v != 31700 {
		t.Fatalf("cycles/io = %v", v)
	}
	ctx, cyc, ios := c.Counters()
	if ctx <= 0 || cyc <= 0 || ios != 2 {
		t.Fatal("counters snapshot broken")
	}
}

func TestAccountingEmpty(t *testing.T) {
	c := NewCPU(sim.NewEngine(), 1)
	if c.ContextSwitchesPerIO() != 0 || c.CyclesPerIO() != 0 {
		t.Fatal("empty accounting should be zero")
	}
}

func TestUtilization(t *testing.T) {
	eng := sim.NewEngine()
	c := NewCPU(eng, 2)
	before := c.BusySnapshot()
	c.Cores[0].Exec(sim.Duration(sim.Second), nil)
	c.Cores[1].Exec(sim.Duration(sim.Second/2), nil)
	eng.Run()
	after := c.BusySnapshot()
	// 1.5 core-seconds over 1 s on 2 cores = 75%.
	if u := Utilization(before, after, sim.Duration(sim.Second)); u < 0.749 || u > 0.751 {
		t.Fatalf("utilization = %v, want 0.75", u)
	}
	if Utilization(before, after, 0) != 0 {
		t.Fatal("zero span should be 0")
	}
	if Utilization(before[:1], after, sim.Second) != 0 {
		t.Fatal("mismatched snapshots should be 0")
	}
}

func TestCostsBatching(t *testing.T) {
	c := DefaultCosts()
	one := c.SubmitCost(1)
	sixteen := c.SubmitCost(16)
	if sixteen >= 16*one {
		t.Fatal("batching should amortize the fixed cost")
	}
	perIOBatched := sixteen / 16
	if perIOBatched >= one {
		t.Fatal("per-IO batched cost should be below QD1 cost")
	}
	if c.SubmitCost(0) != 0 || c.ReapCost(0) != 0 {
		t.Fatal("zero-size batch should be free")
	}
	// QD1 sync loop cost ~8-9 us: 16 such apps saturate a core given
	// ~75 us device time (the paper's saturation point).
	qd1 := c.SubmitCost(1) + c.ReapCost(1)
	if qd1 < 7*sim.Microsecond || qd1 > 10*sim.Microsecond {
		t.Fatalf("QD1 path cost = %v, want ~8.7us", qd1)
	}
	if lib := LibaioCosts(); lib.SubmitCost(1) <= c.SubmitCost(1) {
		t.Fatal("libaio should cost more than io_uring")
	}
}
