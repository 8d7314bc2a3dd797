package workload

import (
	"fmt"

	"isolbench/internal/blk"
	"isolbench/internal/cgroup"
	"isolbench/internal/device"
	"isolbench/internal/host"
	"isolbench/internal/metrics"
	"isolbench/internal/sim"
	"isolbench/internal/trace"
)

// DefaultReplayWindow is the look-ahead window of a streaming replay:
// how many future arrivals are scheduled on the engine at once. The
// window bounds replay memory — a million-request trace holds
// O(window) engine events and slots, never O(trace).
const DefaultReplayWindow = 256

// ReplayConfig configures a trace replayer.
type ReplayConfig struct {
	Name  string        // Stats name (default "replay")
	Group *cgroup.Group // process group the replayed requests charge to
	Core  int           // core index the replay process is pinned to
	Scale float64       // stretches (>1) / compresses (<1) gaps; 0 = 1

	// Window is the arrival look-ahead: how many entries are pulled
	// from the source and scheduled ahead of the clock. 0 uses
	// DefaultReplayWindow; negative replays eagerly (every arrival
	// scheduled at Start — O(trace) memory, the pre-streaming
	// behavior, kept for byte-identity tests).
	Window int
}

// ReplayApp replays a trace as an open-loop workload: each request is
// submitted at its recorded timestamp (optionally time-scaled),
// regardless of completions — so queueing under a slow knob shows up
// as growing latency rather than reduced offered load, exactly how
// production traffic behaves.
//
// Arrivals stream from a trace.Source: only Window of them are
// scheduled at a time, each arrival pulling the next entry, so the
// scheduled-event count is bounded by the window, not the trace.
// Requests come from the shared device.Pool freelist (Get at arrival,
// Put at reap) and completions reap in batches on the app's core, with
// failed/timed-out requests counted as errors rather than latency or
// bandwidth — the same contracts App honors.
type ReplayApp struct {
	eng   *sim.Engine
	cpu   *host.CPU
	acct  *host.IOAccount
	core  *host.Server
	costs host.Costs
	queue *blk.Queue
	group *cgroup.Group
	over  blk.Overheads
	pool  *device.Pool

	name    string
	coreIdx int
	cgID    int
	src     trace.Source
	scale   float64
	window  int // 0 = eager (unbounded)

	started bool
	baseSet bool
	base    sim.Time // first entry's At, mapped to startAt
	startAt sim.Time // engine time when Start ran

	// Arrival scheduling state: slots carry one pending arrival each
	// through the engine as pointer-shaped (arg, gen) callbacks; free
	// slots recycle through slotFree. gen invalidates stale arrivals
	// (none are ever dropped today, but the guard keeps the callback
	// shape uniform with the rest of the engine).
	slotFree  []*replaySlot
	gen       uint64
	scheduled int
	schedPeak int
	srcDone   bool

	// Arrivals build their pooled request immediately and hand it to
	// submitCB through the core; staged counts the requests whose
	// submission CPU cost is still being paid.
	staged   int
	submitCB sim.Callback // persistent: arg is the staged request

	onCompleteFn func(*device.Request)
	doneQ        []*device.Request
	reaping      bool

	issued      uint64 // requests built (lifetime)
	reaped      uint64 // terminal completions incl. failures (lifetime)
	outstanding int    // issued - reaped

	hist      metrics.Histogram
	bytesDone *metrics.Counter
	iosDone   uint64 // window successes
	errsDone  uint64 // window failures/timeouts
	retries   uint64 // window retry attempts (sum of r.Attempts)
	issuedWin uint64 // window arrivals (offered load)
	reapedWin uint64
	bytesRead int64
	bytesWrit int64

	maxSize      int64 // largest request size ever issued (paranoid slack)
	winStartOuts int   // outstanding at window start (paranoid edge slack)
}

// replaySlot is one scheduled arrival: pointer-shaped so passing it as
// an engine callback arg allocates nothing.
type replaySlot struct {
	app *ReplayApp
	e   trace.Entry
}

// replayArrive is the shared arrival callback: every scheduled entry
// funnels through it with its slot as arg. A top-level function keeps
// the hot path free of per-event closures.
func replayArrive(arg any, gen uint64) {
	s := arg.(*replaySlot)
	if gen != s.app.gen {
		return
	}
	s.app.arrive(s)
}

// NewReplayApp builds a replayer pulling arrivals from src. It
// attaches one process to the configured cgroup.
func NewReplayApp(eng *sim.Engine, cpu *host.CPU, costs host.Costs, q *blk.Queue,
	src trace.Source, cfg ReplayConfig) (*ReplayApp, error) {
	if cfg.Group == nil {
		return nil, fmt.Errorf("workload: replay app has no cgroup")
	}
	if src == nil {
		return nil, fmt.Errorf("workload: replay app has no trace source")
	}
	if err := cfg.Group.AttachProc(); err != nil {
		return nil, err
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	if cfg.Name == "" {
		cfg.Name = "replay"
	}
	window := cfg.Window
	if window == 0 {
		window = DefaultReplayWindow
	} else if window < 0 {
		window = 0 // eager: no look-ahead bound
	}
	a := &ReplayApp{
		eng:       eng,
		cpu:       cpu,
		core:      cpu.Core(cfg.Core),
		costs:     costs,
		queue:     q,
		group:     cfg.Group,
		over:      q.PathOverheads(),
		pool:      device.NewPool(),
		name:      cfg.Name,
		coreIdx:   cfg.Core,
		cgID:      cfg.Group.ID(),
		src:       src,
		scale:     cfg.Scale,
		window:    window,
		bytesDone: metrics.NewCounter(100 * sim.Millisecond),
	}
	a.submitCB = func(arg any, _ uint64) { a.submitOne(arg.(*device.Request)) }
	a.onCompleteFn = a.onComplete
	a.acct = cpu.NewAccount(a.over.CtxPerIO, a.over.CyclesPerIO)
	return a, nil
}

// UsePool replaces the replay's private request freelist with a shared
// one. Call before Start; same ownership rules as App.UsePool (the
// pool must belong to the replay's engine/shard).
func (a *ReplayApp) UsePool(p *device.Pool) {
	if p != nil {
		a.pool = p
	}
}

// Start fills the arrival window. In eager mode (Window < 0 at
// construction) the whole source is scheduled here, reproducing the
// pre-streaming replay exactly.
func (a *ReplayApp) Start() {
	if a.started {
		return
	}
	a.started = true
	a.startAt = a.eng.Now()
	if a.window == 0 {
		for a.scheduleNext() {
		}
		return
	}
	for i := 0; i < a.window; i++ {
		if !a.scheduleNext() {
			break
		}
	}
}

// scheduleNext pulls one entry from the source and schedules its
// arrival, reporting whether the source yielded one.
func (a *ReplayApp) scheduleNext() bool {
	if a.srcDone {
		return false
	}
	e, ok := a.src.Next()
	if !ok {
		a.srcDone = true
		return false
	}
	if !a.baseSet {
		a.base = e.At
		a.baseSet = true
	}
	at := a.startAt.Add(sim.Duration(float64(e.At.Sub(a.base)) * a.scale))
	if now := a.eng.Now(); at < now {
		at = now // tolerate slight disorder rather than scheduling in the past
	}
	var s *replaySlot
	if n := len(a.slotFree); n > 0 {
		s = a.slotFree[n-1]
		a.slotFree[n-1] = nil
		a.slotFree = a.slotFree[:n-1]
	} else {
		s = &replaySlot{app: a}
	}
	s.e = e
	a.scheduled++
	if a.scheduled > a.schedPeak {
		a.schedPeak = a.scheduled
	}
	a.eng.AtCall(at, replayArrive, s, a.gen)
	return true
}

// arrive fires at an entry's (scaled) timestamp: build the pooled
// request, stage its submission, and pull the next entry to keep the
// look-ahead window full.
func (a *ReplayApp) arrive(s *replaySlot) {
	e := s.e
	a.scheduled--
	s.e = trace.Entry{}
	a.slotFree = append(a.slotFree, s)

	r := a.pool.Get()
	a.issued++
	a.issuedWin++
	a.outstanding++
	r.ID = a.issued
	r.Op = e.OpKind()
	r.Size = e.Size
	r.Offset = e.Offset
	r.Seq = e.Seq
	r.AppID = a.coreIdx
	r.Cgroup = a.cgID
	r.Class = prioClass(a.group.EffectivePrio())
	r.Weight = a.group.Knobs().BFQWeight
	r.Submit = a.eng.Now()
	r.OnComplete = a.onCompleteFn
	if e.Size > a.maxSize {
		a.maxSize = e.Size
	}
	a.staged++
	a.core.ExecOwned(a.costs.SubmitCost(1)+a.over.SubmitCPU, a.cgID, a.submitCB, r)

	if a.window > 0 {
		a.scheduleNext()
	}
}

// submitOne delivers a staged request once its submission CPU cost has
// been paid.
func (a *ReplayApp) submitOne(r *device.Request) {
	a.staged--
	a.queue.Submit(r)
}

// onComplete runs at terminal completion (success, exhausted retries,
// or timeout abort). Completions reap in batches on the app's core,
// io_uring CQ style, exactly like App.
func (a *ReplayApp) onComplete(r *device.Request) {
	a.doneQ = append(a.doneQ, r)
	if !a.reaping {
		a.reaping = true
		n := len(a.doneQ)
		a.core.ExecOwned(a.costs.ReapCost(n)+sim.Duration(n)*a.over.CompleteCPU, a.cgID, replayReapCB, a)
	}
}

// replayReapCB is every ReplayApp's reap callback; the app rides in arg.
func replayReapCB(arg any, _ uint64) { arg.(*ReplayApp).reapBatch() }

// reapBatch drains the completion queue once the reap cost is paid.
// Failed and timed-out requests moved no data: they count as errors
// and retries, never as latency or bandwidth (the PR 3 fault
// contract).
func (a *ReplayApp) reapBatch() {
	now := a.eng.Now()
	for _, r := range a.doneQ {
		a.reaped++
		a.reapedWin++
		a.outstanding--
		a.retries += uint64(r.Attempts)
		if r.Failed || r.TimedOut {
			a.errsDone++
			a.acct.AccountIO()
			a.pool.Put(r)
			continue
		}
		a.hist.Record(int64(now.Sub(r.Submit)))
		a.bytesDone.Add(now, float64(r.Size))
		a.iosDone++
		if r.Op == device.Write {
			a.bytesWrit += r.Size
		} else {
			a.bytesRead += r.Size
		}
		a.acct.AccountIO()
		a.pool.Put(r)
	}
	a.doneQ = a.doneQ[:0]
	a.reaping = false
}

// Done reports whether the source is exhausted and every issued
// request reached a terminal completion — failures and aborts count,
// so Done converges under fault profiles too.
func (a *ReplayApp) Done() bool {
	return a.started && a.srcDone && a.scheduled == 0 && a.outstanding == 0
}

// Err surfaces the source's read/parse error, if any.
func (a *ReplayApp) Err() error { return a.src.Err() }

// Stats returns the replay's measurements for the current window.
func (a *ReplayApp) Stats() Stats {
	return Stats{
		Name:       a.name,
		IOs:        a.iosDone,
		Errors:     a.errsDone,
		Retries:    a.retries,
		ReadBytes:  a.bytesRead,
		WriteBytes: a.bytesWrit,
		MeanLatNs:  a.hist.Mean(),
		P50Ns:      a.hist.Percentile(50),
		P90Ns:      a.hist.Percentile(90),
		P99Ns:      a.hist.Percentile(99),
		MaxNs:      a.hist.Max(),
	}
}

// Histogram exposes the latency histogram.
func (a *ReplayApp) Histogram() *metrics.Histogram { return &a.hist }

// Bandwidth exposes the completed-bytes counter.
func (a *ReplayApp) Bandwidth() *metrics.Counter { return a.bytesDone }

// Group returns the cgroup the replay charges to.
func (a *ReplayApp) Group() *cgroup.Group { return a.group }

// IssuedWindow returns the arrivals issued in the current measurement
// window — the replay's offered load, which (open loop) can exceed its
// completed IOs.
func (a *ReplayApp) IssuedWindow() uint64 { return a.issuedWin }

// Outstanding returns issued-but-not-reaped requests (staged, queued,
// in flight, or awaiting reap).
func (a *ReplayApp) Outstanding() int { return a.outstanding }

// Scheduled returns the arrivals currently scheduled on the engine.
func (a *ReplayApp) Scheduled() int { return a.scheduled }

// SchedPeak returns the high-water mark of scheduled arrivals; bounded
// streaming keeps it at most the window.
func (a *ReplayApp) SchedPeak() int { return a.schedPeak }

// Window returns the configured look-ahead (0 = eager).
func (a *ReplayApp) Window() int { return a.window }

// MaxReqSize returns the largest request size issued so far (paranoid
// byte-slack input).
func (a *ReplayApp) MaxReqSize() int64 { return a.maxSize }

// ResetMetrics clears window measurements (used to discard warmup).
func (a *ReplayApp) ResetMetrics() {
	a.hist.Reset()
	a.bytesDone = metrics.NewCounter(100 * sim.Millisecond)
	a.iosDone = 0
	a.errsDone = 0
	a.retries = 0
	a.issuedWin = 0
	a.reapedWin = 0
	a.bytesRead = 0
	a.bytesWrit = 0
	a.winStartOuts = a.outstanding
}

// WindowBytes returns the bytes completed in the current measurement
// window, split by direction (paranoid cross-layer checks).
func (a *ReplayApp) WindowBytes() (read, write int64) { return a.bytesRead, a.bytesWrit }

// EdgeSlackBytes bounds how far the replay's window-banked bytes may
// legitimately diverge from the io.stat delta: requests straddling
// either window edge (in flight at the start, or completed at the
// device but unreaped at the end) — at most outstanding requests per
// edge, each at most the largest size ever issued.
func (a *ReplayApp) EdgeSlackBytes() int64 {
	return int64(a.winStartOuts+a.outstanding) * a.maxSize
}

// CheckConservation asserts the replay's request-accounting identities
// at any instant, returning every violated law or nil when all hold.
func (a *ReplayApp) CheckConservation() []string {
	var v []string
	if a.issued != a.reaped+uint64(a.outstanding) {
		v = append(v, fmt.Sprintf(
			"replay %s: issued(%d) != reaped(%d)+outstanding(%d)",
			a.name, a.issued, a.reaped, a.outstanding))
	}
	if held := a.staged + len(a.doneQ); a.outstanding < held {
		v = append(v, fmt.Sprintf(
			"replay %s: outstanding %d below held requests (staged %d + reapable %d)",
			a.name, a.outstanding, a.staged, len(a.doneQ)))
	}
	if got := uint64(a.hist.Count()); got != a.iosDone {
		v = append(v, fmt.Sprintf(
			"replay %s: histogram count %d != window completions %d",
			a.name, got, a.iosDone))
	}
	if a.iosDone+a.errsDone != a.reapedWin {
		v = append(v, fmt.Sprintf(
			"replay %s: window successes(%d)+errors(%d) != window reaps(%d)",
			a.name, a.iosDone, a.errsDone, a.reapedWin))
	}
	if a.scheduled < 0 || (a.window > 0 && a.scheduled > a.window) {
		v = append(v, fmt.Sprintf(
			"replay %s: %d arrivals scheduled outside [0,%d]",
			a.name, a.scheduled, a.window))
	}
	if a.bytesRead < 0 || a.bytesWrit < 0 {
		v = append(v, fmt.Sprintf("replay %s: negative byte counters r=%d w=%d",
			a.name, a.bytesRead, a.bytesWrit))
	}
	if err := a.src.Err(); err != nil {
		v = append(v, fmt.Sprintf("replay %s: trace source failed: %v", a.name, err))
	}
	return v
}
