// Package host models the machine the I/O stack runs on: CPU cores as
// FIFO servers, submission/completion path costs with io_uring-style
// batch amortization, scheduler dispatch locks, and context-switch /
// cycle accounting. The paper's D1 results (CPU saturation points,
// scheduler lock bottlenecks, per-knob latency overheads) come from
// this cost structure.
package host

import (
	"fmt"

	"isolbench/internal/obs/attr"
	"isolbench/internal/sim"
)

// Server is a non-preemptive FIFO work server (a CPU core, a scheduler
// dispatch lock). Work submitted while the server is busy waits its
// turn. The implementation keeps only the next-available timestamp, so
// Exec is O(1).
type Server struct {
	eng   *sim.Engine
	name  string
	avail sim.Time
	busy  sim.Duration
	tasks uint64
	led   *attr.Ledger // occupancy ledger for wait-for-whom accounting (nil = off)
}

// NewServer returns an idle server.
func NewServer(eng *sim.Engine, name string) *Server {
	return &Server{eng: eng, name: name}
}

// SetLedger attaches an occupancy ledger: every executed work item
// records [start, done) under its owner cgroup so waiters can charge
// their queueing delay to whoever held the server.
func (s *Server) SetLedger(l *attr.Ledger) { s.led = l }

// Ledger returns the attached occupancy ledger (nil when attribution
// is off).
func (s *Server) Ledger() *attr.Ledger { return s.led }

// Exec queues work of the given cost and runs fn when it finishes.
// It returns the queueing delay the work experienced (time spent
// waiting behind earlier work).
func (s *Server) Exec(cost sim.Duration, fn func()) sim.Duration {
	wait := s.ExecOwned(cost, attr.Other, nil, nil)
	if fn != nil {
		s.eng.At(s.avail, fn)
	}
	return wait
}

// ExecOwned queues work of the given cost, recording owner in the
// server's occupancy ledger (when one is attached) so the busy interval
// this work occupies can be blamed on owner by later waiters. When the
// work finishes, call(arg, 0) runs; a nil call schedules no completion
// event. The callback is meant to be persistent, so hot paths schedule
// through sim.Engine.AtCall without a per-event closure. It returns the
// queueing delay the work experienced.
func (s *Server) ExecOwned(cost sim.Duration, owner int, call sim.Callback, arg any) sim.Duration {
	if cost < 0 {
		cost = 0
	}
	now := s.eng.Now()
	start := s.avail
	if start < now {
		start = now
	}
	done := start.Add(cost)
	s.avail = done
	s.busy += cost
	s.tasks++
	if s.led != nil && cost > 0 {
		s.led.Record(start, done, owner, s.led.DefLayer())
	}
	if call != nil {
		s.eng.AtCall(done, call, arg, 0)
	}
	return start.Sub(now)
}

// Backlog returns how long newly submitted work would wait right now.
func (s *Server) Backlog() sim.Duration {
	b := s.avail.Sub(s.eng.Now())
	if b < 0 {
		return 0
	}
	return b
}

// BusyTime returns the total time the server has spent executing work.
func (s *Server) BusyTime() sim.Duration { return s.busy }

// Tasks returns the number of work items executed (or queued).
func (s *Server) Tasks() uint64 { return s.tasks }

func (s *Server) String() string { return fmt.Sprintf("server(%s)", s.name) }

// Rebind moves the server onto another engine. Sharded fleets bind a
// core to its shard's engine on first use so all of the core's events
// run inside that shard's window. Only legal while the server is idle
// (no pending completion events on the old engine).
func (s *Server) Rebind(eng *sim.Engine) { s.eng = eng }

// Costs are the host-side CPU costs of the I/O path, before any knob
// or scheduler adds its own. Both the submission syscall and the
// completion reap amortize a fixed cost over a batch (io_uring
// semantics), so a QD1 sync loop pays ~8.7 us/IO — saturating one core
// at ~16 LC-apps, the paper's observed point — while a QD256 batch app
// pays ~3.9 us/IO, reaching ~2.6M IOPS on 10 cores (Fig. 4b).
type Costs struct {
	SubmitBatchFixed sim.Duration // per submission syscall (amortized over a batch)
	SubmitPerIO      sim.Duration // per request on the submit path
	ReapFixed        sim.Duration // per completion-reap wakeup
	ReapPerIO        sim.Duration // per completion reaped
	MaxBatch         int          // largest submission batch
}

// DefaultCosts returns the io_uring-calibrated baseline.
func DefaultCosts() Costs {
	return Costs{
		SubmitBatchFixed: 4000 * sim.Nanosecond,
		SubmitPerIO:      2600 * sim.Nanosecond,
		ReapFixed:        1100 * sim.Nanosecond,
		ReapPerIO:        1100 * sim.Nanosecond,
		MaxBatch:         16,
	}
}

// LibaioCosts returns slightly heavier costs modelling the libaio
// engine the paper uses for its throttling experiments (§III).
func LibaioCosts() Costs {
	return Costs{
		SubmitBatchFixed: 4800 * sim.Nanosecond,
		SubmitPerIO:      2500 * sim.Nanosecond,
		ReapFixed:        1400 * sim.Nanosecond,
		ReapPerIO:        1100 * sim.Nanosecond,
		MaxBatch:         16,
	}
}

// SubmitCost returns the CPU time to submit a batch of n requests.
func (c Costs) SubmitCost(n int) sim.Duration {
	if n <= 0 {
		return 0
	}
	return c.SubmitBatchFixed + sim.Duration(n)*c.SubmitPerIO
}

// ReapCost returns the CPU time to reap a batch of n completions.
func (c Costs) ReapCost(n int) sim.Duration {
	if n <= 0 {
		return 0
	}
	return c.ReapFixed + sim.Duration(n)*c.ReapPerIO
}

// CPU is a set of cores plus global accounting shared by every I/O
// path component (context switches, cycles).
type CPU struct {
	Cores []*Server

	accounts []*IOAccount
}

// IOAccount is one component's I/O bookkeeping slot: an integer event
// count with fixed per-IO coefficients. Keeping the count per account
// (instead of accumulating floats on the shared CPU) makes accounting
// order-independent — Counters sums accounts in registration order, so
// sharded runs that interleave completions differently still report
// bit-identical totals — and race-free, since each account is only
// touched by its owner's engine.
type IOAccount struct {
	ctxPerIO    float64
	cyclesPerIO float64
	ios         uint64
}

// AccountIO records one completed I/O.
func (a *IOAccount) AccountIO() { a.ios++ }

// NewAccount registers a bookkeeping slot with fixed per-IO costs.
// Registration order defines the (deterministic) summation order in
// Counters.
func (c *CPU) NewAccount(ctxPerIO, cyclesPerIO float64) *IOAccount {
	a := &IOAccount{ctxPerIO: ctxPerIO, cyclesPerIO: cyclesPerIO}
	c.accounts = append(c.accounts, a)
	return a
}

// NewCPU returns n idle cores.
func NewCPU(eng *sim.Engine, n int) *CPU {
	if n < 1 {
		n = 1
	}
	c := &CPU{Cores: make([]*Server, n)}
	for i := range c.Cores {
		c.Cores[i] = NewServer(eng, fmt.Sprintf("core%d", i))
	}
	return c
}

// Core returns core i modulo the core count (round-robin placement).
func (c *CPU) Core(i int) *Server {
	if i < 0 {
		i = -i
	}
	return c.Cores[i%len(c.Cores)]
}

// ContextSwitchesPerIO returns the average recorded context switches
// per I/O.
func (c *CPU) ContextSwitchesPerIO() float64 {
	ctx, _, ios := c.Counters()
	if ios == 0 {
		return 0
	}
	return ctx / float64(ios)
}

// CyclesPerIO returns the average recorded cycles per I/O.
func (c *CPU) CyclesPerIO() float64 {
	_, cycles, ios := c.Counters()
	if ios == 0 {
		return 0
	}
	return cycles / float64(ios)
}

// IOs returns the number of accounted I/Os.
func (c *CPU) IOs() uint64 {
	_, _, ios := c.Counters()
	return ios
}

// Counters returns the cumulative accounting (context switches,
// cycles, I/Os) summed over all registered accounts in registration
// order; diff two snapshots to measure a window.
func (c *CPU) Counters() (ctxSwitches, cycles float64, ios uint64) {
	for _, a := range c.accounts {
		ctxSwitches += float64(a.ios) * a.ctxPerIO
		cycles += float64(a.ios) * a.cyclesPerIO
		ios += a.ios
	}
	return ctxSwitches, cycles, ios
}

// BusySnapshot returns per-core busy time; diff two snapshots to get
// utilization over a window.
func (c *CPU) BusySnapshot() []sim.Duration {
	out := make([]sim.Duration, len(c.Cores))
	for i, s := range c.Cores {
		out[i] = s.BusyTime()
	}
	return out
}

// Utilization returns aggregate CPU utilization (0..1 per core,
// averaged) between two snapshots over the given span.
func Utilization(before, after []sim.Duration, span sim.Duration) float64 {
	if span <= 0 || len(before) == 0 || len(before) != len(after) {
		return 0
	}
	var sum float64
	for i := range before {
		sum += (after[i] - before[i]).Seconds()
	}
	return sum / (span.Seconds() * float64(len(before)))
}
