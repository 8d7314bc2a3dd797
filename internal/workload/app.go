package workload

import (
	"fmt"

	"isolbench/internal/blk"
	"isolbench/internal/device"
	"isolbench/internal/host"
	"isolbench/internal/metrics"
	"isolbench/internal/obs/attr"
	"isolbench/internal/sim"
)

// App is one running workload generator. It keeps up to QD requests
// outstanding, paying the host submission/completion CPU costs on its
// pinned core, and records per-app latency and bandwidth.
type App struct {
	eng   *sim.Engine
	cpu   *host.CPU
	core  *host.Server
	costs host.Costs
	queue *blk.Queue
	spec  Spec
	rng   *sim.RNG

	over blk.Overheads // cached controller+scheduler path overheads

	pool        *device.Pool
	acct        *host.IOAccount
	outstanding int
	submitting  bool
	started     bool
	doneQ       []*device.Request
	reaping     bool

	// Reusable completion closure for the submit->complete hot path.
	// The submitting/reaping flags guarantee at most one outstanding
	// submit and reap event (appSubmitCB, appReapCB); the pending*
	// fields carry the batch arguments.
	onCompleteFn func(*device.Request)
	pendingBatch int
	pendingAt    sim.Time

	// Attribution (nil tracker = disabled fast path). pendingWait is
	// the staged batch's submission-path CPU queueing delay, charged
	// per request against the core's occupancy ledger at build time.
	attrT       *attr.Tracker
	cgID        int
	pendingWait sim.Duration

	tokens     float64
	lastRefill sim.Time

	seqCursor int64
	nextID    uint64

	hist      metrics.Histogram
	bytesDone *metrics.Counter
	iosDone   uint64
	errsDone  uint64
	reaped    uint64 // lifetime reap count; never reset, unlike iosDone
	bytesRead int64
	bytesWrit int64

	wakeGen uint64
	wakeCB  sim.Callback // persistent generation-guarded wakeup

	// Churn support: a quiesced app stops issuing and fires onDrained
	// once nothing it built remains in flight (mid-run tenant removal
	// drains through this).
	quiesced  bool
	onDrained func()
}

// NewApp builds an app bound to a queue and a core. It attaches one
// process to the spec's cgroup.
func NewApp(eng *sim.Engine, cpu *host.CPU, costs host.Costs, q *blk.Queue, spec Spec, seed uint64) (*App, error) {
	spec = spec.withDefaults()
	if spec.Group == nil {
		return nil, fmt.Errorf("workload: app %q has no cgroup", spec.Name)
	}
	if err := spec.Group.AttachProc(); err != nil {
		return nil, fmt.Errorf("workload: app %q: %w", spec.Name, err)
	}
	a := &App{
		eng:       eng,
		cpu:       cpu,
		core:      cpu.Core(spec.Core),
		costs:     costs,
		queue:     q,
		spec:      spec,
		rng:       sim.NewRNG(seed),
		over:      q.PathOverheads(),
		bytesDone: metrics.NewCounter(100 * sim.Millisecond),
	}
	a.onCompleteFn = a.onComplete
	a.wakeCB = func(_ any, gen uint64) {
		if gen != a.wakeGen {
			return
		}
		a.trySubmit()
	}
	a.cgID = spec.Group.ID()
	a.pool = device.NewPool()
	a.acct = cpu.NewAccount(a.over.CtxPerIO, a.over.CyclesPerIO)
	return a, nil
}

// UsePool replaces the app's private request freelist with a shared
// one. Call before Start. The pool must belong to the app's engine
// (its shard): requests recycle strictly within one event stream, so
// reuse order stays deterministic.
func (a *App) UsePool(p *device.Pool) {
	if p != nil {
		a.pool = p
	}
}

// Spec returns the app's configuration.
func (a *App) Spec() Spec { return a.spec }

// SetAttribution enables wait-for-whom accounting: each built request
// gets a blame record, and submission/reap CPU queueing is charged
// against the core's occupancy ledger. Passing nil disables it.
func (a *App) SetAttribution(t *attr.Tracker) { a.attrT = t }

// Start arms the app's first submission at its start time.
func (a *App) Start() {
	if a.started {
		return
	}
	a.started = true
	a.lastRefill = a.spec.Start
	a.eng.At(a.spec.Start, a.trySubmit)
}

// active reports whether the app should be issuing at time t, per its
// start/stop window and burst schedule. The second result is when it
// next becomes active (valid when inactive and not permanently done).
func (a *App) active(t sim.Time) (bool, sim.Time) {
	if t < a.spec.Start {
		return false, a.spec.Start
	}
	if a.spec.Stop > 0 && t >= a.spec.Stop {
		return false, 0
	}
	if a.spec.BurstOn <= 0 {
		return true, 0
	}
	cycle := a.spec.BurstOn + a.spec.BurstOff
	into := sim.Duration(t - a.spec.Start)
	phase := into % cycle
	if phase < a.spec.BurstOn {
		return true, 0
	}
	next := t.Add(cycle - phase)
	return false, next
}

// refillTokens accrues rate-limit budget.
func (a *App) refillTokens() {
	if a.spec.RateLimit <= 0 {
		return
	}
	now := a.eng.Now()
	dt := now.Sub(a.lastRefill).Seconds()
	if dt <= 0 {
		return
	}
	a.lastRefill = now
	a.tokens += a.spec.RateLimit * dt
	if cap := maxf(2*float64(a.spec.Size), a.spec.RateLimit*0.002); a.tokens > cap {
		a.tokens = cap
	}
}

func maxf(x, y float64) float64 {
	if x > y {
		return x
	}
	return y
}

// Quiesce stops the app from issuing new requests and arranges for
// onDrained to fire (inside the engine) once every request it built has
// been reaped. An app with nothing in flight drains synchronously.
// Pending rate-limit/burst wakeups are cancelled via the wake
// generation. Quiescing is permanent — it is the first half of tenant
// removal, not a pause.
func (a *App) Quiesce(onDrained func()) {
	a.quiesced = true
	a.onDrained = onDrained
	a.wakeGen++ // drop any armed wakeups
	a.maybeDrained()
}

// Drained reports whether the app is quiesced with nothing in flight.
func (a *App) Drained() bool {
	return a.quiesced && a.outstanding == 0 && !a.submitting
}

// maybeDrained fires the drain callback exactly once, when the last
// outstanding request has been reaped and no staged batch remains.
func (a *App) maybeDrained() {
	if !a.quiesced || a.outstanding != 0 || a.submitting || a.onDrained == nil {
		return
	}
	cb := a.onDrained
	a.onDrained = nil
	cb()
}

// trySubmit issues as many requests as QD, rate budget, and the batch
// cap allow, charging the submission CPU cost once per batch.
func (a *App) trySubmit() {
	if a.quiesced {
		// The drain path funnels through here: reapBatch's trailing
		// trySubmit is the natural "all reaped" detection point.
		a.maybeDrained()
		return
	}
	if a.submitting {
		return
	}
	now := a.eng.Now()
	ok, next := a.active(now)
	if !ok {
		if next > 0 {
			a.wake(next)
		}
		return
	}
	free := a.spec.QD - a.outstanding
	if free <= 0 {
		return
	}
	n := free
	if a.costs.MaxBatch > 0 && n > a.costs.MaxBatch {
		n = a.costs.MaxBatch
	}
	if a.spec.RateLimit > 0 {
		a.refillTokens()
		afford := int(a.tokens / float64(a.spec.Size))
		if afford <= 0 {
			// Wake when one request's worth of budget has accrued.
			// Round the wait up: truncating to the current instant
			// would respin forever on a sub-byte deficit.
			deficit := float64(a.spec.Size) - a.tokens
			wait := sim.Duration(deficit/a.spec.RateLimit*float64(sim.Second)) + 1
			a.wake(now.Add(wait))
			return
		}
		if n > afford {
			n = afford
		}
		a.tokens -= float64(n) * float64(a.spec.Size)
	}

	submitAt := now
	cost := a.costs.SubmitCost(n) + sim.Duration(n)*a.over.SubmitCPU
	if a.over.ContentionFactor > 0 {
		if backlog := a.core.Backlog(); backlog > a.over.ContentionFree {
			extra := sim.Duration(a.over.ContentionFactor * float64(backlog-a.over.ContentionFree))
			if extra > a.over.ContentionCap {
				extra = a.over.ContentionCap
			}
			cost += extra
		}
	}
	a.outstanding += n
	a.submitting = true
	a.pendingBatch = n
	a.pendingAt = submitAt
	a.pendingWait = a.core.ExecOwned(cost, a.cgID, appSubmitCB, a)
}

// appSubmitCB and appReapCB are every App's core-completion callbacks;
// the App rides in arg.
func appSubmitCB(arg any, _ uint64) { arg.(*App).submitBatch() }
func appReapCB(arg any, _ uint64)   { arg.(*App).reapBatch() }

// submitBatch delivers the batch staged by trySubmit once its CPU cost
// has been paid.
func (a *App) submitBatch() {
	a.submitting = false
	batch := a.pendingBatch
	submitAt := a.pendingAt
	for i := 0; i < batch; i++ {
		a.queue.Submit(a.buildRequest(submitAt))
	}
	a.trySubmit()
}

// wake schedules a generation-guarded retry (later wakes that were
// superseded by real activity are dropped).
func (a *App) wake(at sim.Time) {
	a.wakeGen++
	a.eng.AtCall(at, a.wakeCB, nil, a.wakeGen)
}

// buildRequest pulls a pooled request and fills it. This is the
// lifecycle's get point; the matching put is in reapBatch.
func (a *App) buildRequest(submitAt sim.Time) *device.Request {
	r := a.pool.Get()
	a.nextID++
	r.ID = a.nextID
	r.Op = a.spec.Op
	if a.spec.MixedRW {
		if a.rng.Float64() < a.spec.ReadFrac {
			r.Op = device.Read
		} else {
			r.Op = device.Write
		}
	}
	r.Size = a.spec.Size
	r.Seq = a.spec.Seq
	if a.spec.Seq {
		r.Offset = a.seqCursor
		a.seqCursor += a.spec.Size
	} else {
		r.Offset = a.rng.Int63n(1 << 40)
	}
	r.AppID = a.spec.Core // informational
	r.Cgroup = a.spec.Group.ID()
	r.Class = prioClass(a.spec.Group.EffectivePrio())
	r.Weight = a.spec.Group.Knobs().BFQWeight
	r.Submit = submitAt
	r.OnComplete = a.onCompleteFn
	if a.attrT != nil {
		b := a.attrT.NewReq()
		if a.pendingWait > 0 {
			// The whole staged batch waited [submitAt, submitAt+wait)
			// for the core; the ledger says who held it.
			a.core.Ledger().ChargeSpan(b, submitAt, submitAt.Add(a.pendingWait), a.cgID)
		}
		r.Blame = b
	}
	return r
}

// onComplete runs at device completion. Completions are reaped in
// batches (io_uring CQ semantics): the first completion schedules a
// reap task on the app's core; completions arriving before the reap
// runs share its fixed cost.
func (a *App) onComplete(r *device.Request) {
	a.doneQ = append(a.doneQ, r)
	if !a.reaping {
		a.reaping = true
		a.scheduleReap()
	}
}

func (a *App) scheduleReap() {
	n := len(a.doneQ)
	cost := a.costs.ReapCost(n) + sim.Duration(n)*a.over.CompleteCPU
	wait := a.core.ExecOwned(cost, a.cgID, appReapCB, a)
	if a.attrT != nil && wait > 0 {
		// Reap-path CPU queueing happens after the requests' spans were
		// harvested, so it goes straight into the blame matrix as its
		// own record rather than onto any single request.
		b := a.attrT.NewReq()
		now := a.eng.Now()
		a.core.Ledger().ChargeSpan(b, now, now.Add(wait), a.cgID)
		a.attrT.Finish(a.cgID, b)
	}
}

// reapBatch drains the completion queue once the reap cost has been
// paid. Completions that arrived after scheduleReap sized the cost ride
// along, matching io_uring's batched CQ reaping.
func (a *App) reapBatch() {
	now := a.eng.Now()
	for _, r := range a.doneQ {
		a.reaped++
		if r.Failed || r.TimedOut {
			// The recovery path exhausted its retry budget: the I/O
			// moved no data, so it counts as an error, not as latency
			// or bandwidth.
			a.errsDone++
			a.acct.AccountIO()
			a.outstanding--
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
		a.outstanding--
		a.pool.Put(r)
	}
	a.doneQ = a.doneQ[:0]
	a.reaping = false
	a.trySubmit()
}

// Stats is an app's measurement snapshot.
type Stats struct {
	Name       string
	IOs        uint64
	Errors     uint64
	Retries    uint64 // retry attempts behind the completions (replay only today)
	ReadBytes  int64
	WriteBytes int64
	MeanLatNs  float64
	P50Ns      int64
	P90Ns      int64
	P99Ns      int64
	MaxNs      int64
}

// Stats returns the app's current measurements.
func (a *App) Stats() Stats {
	return Stats{
		Name:       a.spec.Name,
		IOs:        a.iosDone,
		Errors:     a.errsDone,
		ReadBytes:  a.bytesRead,
		WriteBytes: a.bytesWrit,
		MeanLatNs:  a.hist.Mean(),
		P50Ns:      a.hist.Percentile(50),
		P90Ns:      a.hist.Percentile(90),
		P99Ns:      a.hist.Percentile(99),
		MaxNs:      a.hist.Max(),
	}
}

// Histogram exposes the app's latency histogram (read-only use).
func (a *App) Histogram() *metrics.Histogram { return &a.hist }

// Bandwidth exposes the app's completed-bytes counter.
func (a *App) Bandwidth() *metrics.Counter { return a.bytesDone }

// ResetMetrics clears measurements (used to discard warmup).
func (a *App) ResetMetrics() {
	a.hist.Reset()
	a.bytesDone = metrics.NewCounter(100 * sim.Millisecond)
	a.iosDone = 0
	a.errsDone = 0
	a.bytesRead = 0
	a.bytesWrit = 0
}

// Outstanding returns the in-flight request count (tests).
func (a *App) Outstanding() int { return a.outstanding }

// CheckConservation asserts the app's lifetime request-accounting
// identities at a quiescent-enough instant (any time is fine; requests
// in flight are counted by outstanding). It returns every violated law,
// one message per line fragment, or nil when all hold.
//
// The core identity is built + staged == reaped + outstanding:
// trySubmit raises outstanding by the staged batch before buildRequest
// assigns IDs, so nextID (built) lags outstanding by the staged count
// while a submission's CPU cost is being paid.
func (a *App) CheckConservation() []string {
	var v []string
	staged := uint64(0)
	if a.submitting {
		staged = uint64(a.pendingBatch)
	}
	if a.nextID+staged != a.reaped+uint64(a.outstanding) {
		v = append(v, fmt.Sprintf(
			"app %s: built(%d)+staged(%d) != reaped(%d)+outstanding(%d)",
			a.spec.Name, a.nextID, staged, a.reaped, a.outstanding))
	}
	if a.outstanding < 0 || a.outstanding > a.spec.QD {
		v = append(v, fmt.Sprintf("app %s: outstanding %d outside [0,%d]",
			a.spec.Name, a.outstanding, a.spec.QD))
	}
	if got := uint64(a.hist.Count()); got != a.iosDone {
		v = append(v, fmt.Sprintf(
			"app %s: histogram count %d != window completions %d",
			a.spec.Name, got, a.iosDone))
	}
	if a.bytesRead < 0 || a.bytesWrit < 0 {
		v = append(v, fmt.Sprintf("app %s: negative byte counters r=%d w=%d",
			a.spec.Name, a.bytesRead, a.bytesWrit))
	}
	return v
}

// WindowBytes returns the bytes completed in the current measurement
// window, split by direction (paranoid cross-layer checks).
func (a *App) WindowBytes() (read, write int64) { return a.bytesRead, a.bytesWrit }
