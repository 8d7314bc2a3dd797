package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"isolbench/internal/blk"
	"isolbench/internal/cgroup"
	"isolbench/internal/device"
	"isolbench/internal/fault"
	"isolbench/internal/host"
	"isolbench/internal/ioctl/iocost"
	"isolbench/internal/ioctl/iolatency"
	"isolbench/internal/obs"
	"isolbench/internal/obs/attr"
	"isolbench/internal/shaper"
	"isolbench/internal/sim"
	"isolbench/internal/trace"
	"isolbench/internal/workload"
)

// Placement selects which device column a new tenant lands on when its
// spec does not pin one.
type Placement int

// Placement policies.
const (
	// PlaceRoundRobin cycles tenants across devices in arrival order
	// (the default; matches how earlier experiments spread apps).
	PlaceRoundRobin Placement = iota
	// PlacePacked fills the lowest-indexed device up to Options.PackLimit
	// tenants before spilling to the next; with PackLimit 0 every tenant
	// lands on device 0 — the worst-case-contention policy.
	PlacePacked
	// PlaceWeightedSpread puts each tenant on the device with the
	// smallest placement-weight sum (lowest index on ties), balancing
	// heterogeneous tenants rather than counts.
	PlaceWeightedSpread
)

func (p Placement) String() string {
	switch p {
	case PlacePacked:
		return "packed"
	case PlaceWeightedSpread:
		return "weighted-spread"
	default:
		return "round-robin"
	}
}

// DeviceColumn is one device's full request path: the device itself,
// its blk queue (scheduler + controller wired for the fleet's knob),
// and the optional fault injector and controller handles. Columns are
// the unit of placement — a tenant's apps all feed one column.
type DeviceColumn struct {
	Index  int
	Dev    *device.Device
	Queue  *blk.Queue
	Fault  *fault.Injector       // nil unless Options.Fault is enabled
	IOLat  *iolatency.Controller // nil unless the knob is io.latency
	IOCost *iocost.Controller    // nil unless the knob is io.cost
	Shaper *shaper.Shaper        // nil unless the knob is adaptive
}

// Fleet is the assembled testbed: engine, CPU, cgroup tree, N device
// columns, and the tenants/apps added so far. It supports mid-run
// churn — AddTenant/RemoveTenant while the engine runs — with drained
// teardown so the conservation invariants keep holding.
//
// Cluster is an alias of Fleet; the single-device experiments use the
// legacy name and never touch the tenant API.
type Fleet struct {
	Opts Options

	Eng     *sim.Engine
	CPU     *host.CPU
	Tree    *cgroup.Tree
	Devices []*device.Device
	Queues  []*blk.Queue
	Slice   *cgroup.Group // the management group tenant groups live under

	// Columns holds the per-device request paths, parallel to Devices
	// and Queues.
	Columns []*DeviceColumn

	// Obs is the observability hub; nil unless Options.Observe.
	Obs *obs.Observer

	// Attr is the wait-for-whom tracker; nil unless Options.Attr.
	Attr *attr.Tracker

	// Faults holds each device's injector when Options.Fault is
	// enabled (index by device); nil otherwise.
	Faults []*fault.Injector

	// Knob-specific controller handles for introspection (index by
	// device); nil slices when the knob does not use them.
	IOLat  []*iolatency.Controller
	IOCost []*iocost.Controller

	// Shapers holds each device column's closed-loop shaper when the
	// knob is KnobAdaptive (index by device); nil otherwise. Every
	// tenant group registers with every column's shaper — a shaper
	// ignores groups with no traffic on its device, so multi-device
	// placement needs no extra plumbing.
	Shapers []*shaper.Shaper

	Apps   []*workload.App
	Groups []*cgroup.Group

	// Replays lists the open-loop trace replayers (streamed from
	// trace.Sources); replayDev is their device index, parallel.
	Replays   []*workload.ReplayApp
	replayDev []int

	// Tenants lists the live tenant handles in creation order (removed
	// tenants drop out once their teardown finishes).
	Tenants []*Tenant

	appSeq     uint64
	appDev     []int // device index per app, parallel to Apps
	started    bool
	busyBefore []sim.Duration
	ctxBefore  float64
	cycBefore  float64
	iosBefore  uint64
	measStart  sim.Time

	// Placement bookkeeping: tenant count and placement-weight sum per
	// device column.
	tenantSeq  int
	rrNext     int
	devTenants []int
	devLoad    []float64
	removals   int

	// Churn accounting for the paranoid checker. Removed tenants leave
	// the Apps roster, so their window-banked bytes (and edge slack)
	// move into these accumulators; both reset when a new measurement
	// window opens. maxReqSize tracks the largest request size any app
	// ever used, so the device-vs-io.stat slack stays valid after the
	// app that set it is gone. churnViolations records teardown failures
	// (a cgroup that refused removal) for CheckInvariants.
	retiredR        int64
	retiredW        int64
	retiredSlack    int64
	maxReqSize      int64
	churnViolations []string

	// obsBase holds the io.stat byte total at measStart so the paranoid
	// window check can compare app-window bytes against the io.stat
	// delta; obsBaseSet marks that the snapshot exists.
	obsBase    int64
	obsBaseSet bool
	// incidentNoted dedups the obs incident for a sticky engine error
	// reported by several RunPhase/RunTo calls.
	incidentNoted bool

	// Sharded runtime state (Control.Shards > 1). Each device column is
	// pinned to one shard engine; c.Eng stays the global engine, which
	// only hosts events scheduled while no shard window is running
	// (setup-time schedules like churn arrivals, and barrier work).
	// Empty shardEngs means the classic single-engine runtime.
	shardEngs []*sim.Engine
	colShard  []int  // device column -> shard index
	coreShard []int  // CPU core -> owning shard (-1 until first use)
	shardNote string // why a Shards request was clamped off ("" otherwise)

	// reqPools holds the per-engine request freelists injected into
	// every app: index by shard when sharded, a single fleet-wide pool
	// otherwise. Requests recycle strictly within one engine's event
	// stream, keeping reuse deterministic.
	reqPools []*device.Pool

	// Deferred tenant-teardown state: while a shard window runs
	// (winActive), the global half of finishRemove queues here and is
	// applied at the next window barrier in (drain time, tenant ID)
	// order.
	winActive     bool
	retireMu      sync.Mutex
	pendingRetire []pendingRetire
}

// pendingRetire is one drained tenant awaiting its global teardown at
// the next window barrier.
type pendingRetire struct {
	at   sim.Time
	t    *Tenant
	done func(error)
}

// NewFleet assembles a testbed for the given options.
func NewFleet(opts Options) (*Fleet, error) {
	if opts.Knob.def().column == nil {
		return nil, fmt.Errorf("core: %v is not a registered knob", opts.Knob)
	}
	opts = opts.withDefaults()
	c := &Fleet{
		Opts: opts,
		Eng:  sim.NewEngine(),
		Tree: cgroup.NewTree(),
	}
	c.CPU = host.NewCPU(c.Eng, opts.Cores)
	if opts.Control.Shards > 1 {
		if opts.Observe {
			// The observer (and everything that implies it: Attr, SLO,
			// Paranoid) is single-engine state — its rings and counters
			// are appended from every layer's hooks, which would race
			// across shard goroutines.
			c.shardNote = "sharding disabled: observability requires the single-engine runtime"
		} else {
			n := opts.Control.Shards
			if n > opts.Devices {
				n = opts.Devices
			}
			c.shardEngs = make([]*sim.Engine, n)
			for i := range c.shardEngs {
				c.shardEngs[i] = sim.NewEngine()
			}
			c.coreShard = make([]int, opts.Cores)
			for i := range c.coreShard {
				c.coreShard[i] = -1
			}
		}
	}
	// One request freelist per engine: apps Get at submit and Put at
	// reap, so the steady-state working set is the fleet's aggregate
	// queue depth instead of a fresh arena per app.
	if len(c.shardEngs) > 0 {
		c.reqPools = make([]*device.Pool, len(c.shardEngs))
		for i := range c.reqPools {
			c.reqPools[i] = device.NewPool()
		}
	} else {
		c.reqPools = []*device.Pool{device.NewPool()}
	}
	if opts.Control.armed() {
		// The same watchdog config is armed on every engine: it only
		// observes the event stream, so a run that does not trip it is
		// bit-identical either way. In sharded runs MaxEvents/StallEvents
		// bound each shard separately.
		c.Eng.SetWatchdog(opts.Control.watchdog())
		for _, se := range c.shardEngs {
			se.SetWatchdog(opts.Control.watchdog())
		}
	}

	if opts.Observe {
		c.Obs = obs.NewWithConfig(c.Eng, opts.ObsConfig)
		c.Obs.CgroupName = func(id int) string {
			if g := c.Tree.ByID(id); g != nil {
				return g.Path()
			}
			return ""
		}
		c.Tree.SetStatProvider(c.Obs)
	}
	if opts.Attr {
		c.Attr = attr.NewTracker(c.Eng, opts.AttrConfig)
		c.Obs.Attr = c.Attr
		// Every CPU core gets an occupancy ledger so submission/reap
		// queueing can be blamed on the cgroup holding the core.
		for _, core := range c.CPU.Cores {
			core.SetLedger(c.Attr.NewLedger(attr.LayerCPU))
		}
	}
	if opts.SLO.P99 > 0 {
		c.Obs.EnableSLO(opts.SLO)
	}

	slice, err := c.Tree.Root().Create("isolbench.slice")
	if err != nil {
		return nil, err
	}
	if err := slice.EnableController("io"); err != nil {
		return nil, err
	}
	c.Slice = slice

	// io.cost config must be on the root before controllers attach.
	if opts.Knob.def().costRoot {
		for i := 0; i < opts.Devices; i++ {
			if err := c.configureIOCostRoot(i); err != nil {
				return nil, err
			}
		}
	}

	for i := 0; i < opts.Devices; i++ {
		if err := c.addColumn(i); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// configureIOCostRoot writes the root io.cost.model/io.cost.qos lines
// for device i.
func (c *Fleet) configureIOCostRoot(i int) error {
	if err := c.Tree.Root().SetFile("io.cost.model", DevName(i)+" "+c.Opts.IOCostModel); err != nil {
		return fmt.Errorf("io.cost.model: %w", err)
	}
	if err := c.Tree.Root().SetFile("io.cost.qos", DevName(i)+" "+c.Opts.IOCostQoS); err != nil {
		return fmt.Errorf("io.cost.qos: %w", err)
	}
	return nil
}

// addColumn builds device column i: the device, the knob's scheduler
// and controller, the observability/attribution/fault wiring, and the
// blk queue, in exactly the order the original single-loop constructor
// used (the seed derivations depend on the device index only, so
// columns added later draw the same streams they always would have).
func (c *Fleet) addColumn(i int) error {
	opts := c.Opts
	shard := 0
	if n := len(c.shardEngs); n > 0 {
		shard = i % n
	}
	c.colShard = append(c.colShard, shard)
	eng := c.EngFor(i)
	dev, err := device.New(eng, opts.Profile, opts.Seed*1000003+uint64(i)+1)
	if err != nil {
		return err
	}
	if opts.Precondition {
		dev.Precondition()
	}
	col := &DeviceColumn{Index: i, Dev: dev}
	// The scheduler shares the queue's dispatch-stream ledger so it can
	// own intervals where nothing dispatches (BFQ idling, MQ-DL
	// strict-priority recency blocks); controllers charge their
	// throttle holds directly.
	schedLed := c.Attr.NewLedger(attr.LayerSched)
	sched, ctl := opts.Knob.def().column(c, col, eng, schedLed)
	if c.Obs != nil {
		name := DevName(i)
		dev.OnGC = func(active bool, debtBytes int64) {
			on := 0.0
			if active {
				on = 1
			}
			c.Obs.Sample("dev.gc_active."+name, -1, on)
			c.Obs.Sample("dev.gc_debt."+name, -1, float64(debtBytes))
		}
	}
	if opts.Fault.Enabled() {
		// The injector's seed stream is disjoint from the device
		// seed (opts.Seed*1000003+i+1) so attaching faults never
		// perturbs the device's own jitter draws.
		in, err := fault.NewInjector(opts.Fault, opts.Seed*2654435761+uint64(i)+500009)
		if err != nil {
			return fmt.Errorf("fault profile: %w", err)
		}
		dev.AttachFaults(in)
		c.Faults = append(c.Faults, in)
		col.Fault = in
	}
	c.Devices = append(c.Devices, dev)
	q := blk.NewQueue(eng, dev, sched, ctl)
	q.SetObserver(c.Obs, DevName(i))
	if c.Attr != nil {
		q.SetAttribution(c.Attr, schedLed)
	}
	retry := opts.Retry
	if retry == (blk.RetryPolicy{}) && opts.Fault.Enabled() {
		retry = blk.DefaultRetryPolicy()
	}
	if retry != (blk.RetryPolicy{}) {
		q.SetRetryPolicy(retry)
	}
	c.Queues = append(c.Queues, q)
	col.Queue = q
	c.Columns = append(c.Columns, col)
	c.devTenants = append(c.devTenants, 0)
	c.devLoad = append(c.devLoad, 0)
	return nil
}

// AddDevice grows the fleet by one device column (usable mid-run: the
// new device's RNG streams depend only on its index, and the engine
// clamps nothing — the column simply starts existing now). Returns the
// new column's device index.
func (c *Fleet) AddDevice() (int, error) {
	i := len(c.Devices)
	if c.Opts.Knob.def().costRoot {
		if err := c.configureIOCostRoot(i); err != nil {
			return 0, err
		}
	}
	if err := c.addColumn(i); err != nil {
		return 0, err
	}
	return i, nil
}

// Column returns device column i.
func (c *Fleet) Column(i int) *DeviceColumn { return c.Columns[i] }

// EngFor returns the engine that device column i's events run on: the
// column's shard engine when the fleet is sharded, the fleet engine
// otherwise. Components that schedule per-device runtime events (extra
// managers, replayers) must use this engine, not c.Eng.
func (c *Fleet) EngFor(i int) *sim.Engine {
	if len(c.shardEngs) > 0 && i < len(c.colShard) {
		return c.shardEngs[c.colShard[i]]
	}
	return c.Eng
}

// Shards reports the effective shard count: 0 for the classic
// single-engine runtime, >= 1 when the sharded runtime is active.
func (c *Fleet) Shards() int { return len(c.shardEngs) }

// ShardNote reports why a Control.Shards request was clamped off (""
// when sharding is active or was never requested).
func (c *Fleet) ShardNote() string { return c.shardNote }

// NewGroup creates a tenant process group under the benchmark slice.
func (c *Fleet) NewGroup(name string) (*cgroup.Group, error) {
	g, err := c.Slice.Create(name)
	if err != nil {
		return nil, err
	}
	c.Groups = append(c.Groups, g)
	for _, sh := range c.Shapers {
		sh.Register(g)
	}
	return g, nil
}

// AddApp creates an app bound to device dev and registers it. In a
// sharded fleet the app runs on its device column's shard engine, and
// its core is bound to that shard on first use — a core cannot serve
// apps from two shards (their completion events would interleave
// across engines), so such a placement is rejected.
func (c *Fleet) AddApp(spec workload.Spec, dev int) (*workload.App, error) {
	if dev < 0 || dev >= len(c.Queues) {
		return nil, fmt.Errorf("core: device index %d out of range", dev)
	}
	pool := c.reqPools[0]
	if len(c.shardEngs) > 0 {
		shard := c.colShard[dev]
		pool = c.reqPools[shard]
		ci := spec.Core
		if ci < 0 {
			ci = -ci
		}
		ci %= len(c.CPU.Cores)
		switch c.coreShard[ci] {
		case -1:
			c.CPU.Cores[ci].Rebind(c.shardEngs[shard])
			c.coreShard[ci] = shard
		case shard:
			// already bound to this shard
		default:
			return nil, fmt.Errorf(
				"core: app %q on device %d needs core %d in shard %d, but the core is bound to shard %d (run with -shards 1, or place shard-disjoint cores)",
				spec.Name, dev, ci, shard, c.coreShard[ci])
		}
	}
	c.appSeq++
	app, err := workload.NewApp(c.EngFor(dev), c.CPU, c.Opts.Costs, c.Queues[dev],
		spec, c.Opts.Seed*7919+c.appSeq)
	if err != nil {
		return nil, err
	}
	app.UsePool(pool)
	if c.Attr != nil {
		app.SetAttribution(c.Attr)
	}
	c.Apps = append(c.Apps, app)
	c.appDev = append(c.appDev, dev)
	if s := app.Spec().Size; s > c.maxReqSize {
		c.maxReqSize = s
	}
	return app, nil
}

// AddReplay creates an open-loop trace replayer streaming from src
// against device dev and registers it. Shard rules match AddApp: the
// replayer runs on its device column's shard engine and binds its core
// to that shard.
func (c *Fleet) AddReplay(src trace.Source, cfg workload.ReplayConfig, dev int) (*workload.ReplayApp, error) {
	if dev < 0 || dev >= len(c.Queues) {
		return nil, fmt.Errorf("core: device index %d out of range", dev)
	}
	pool := c.reqPools[0]
	if len(c.shardEngs) > 0 {
		shard := c.colShard[dev]
		pool = c.reqPools[shard]
		ci := cfg.Core
		if ci < 0 {
			ci = -ci
		}
		ci %= len(c.CPU.Cores)
		switch c.coreShard[ci] {
		case -1:
			c.CPU.Cores[ci].Rebind(c.shardEngs[shard])
			c.coreShard[ci] = shard
		case shard:
			// already bound to this shard
		default:
			return nil, fmt.Errorf(
				"core: replay %q on device %d needs core %d in shard %d, but the core is bound to shard %d (run with -shards 1, or place shard-disjoint cores)",
				cfg.Name, dev, ci, shard, c.coreShard[ci])
		}
	}
	app, err := workload.NewReplayApp(c.EngFor(dev), c.CPU, c.Opts.Costs, c.Queues[dev], src, cfg)
	if err != nil {
		return nil, err
	}
	app.UsePool(pool)
	c.Replays = append(c.Replays, app)
	c.replayDev = append(c.replayDev, dev)
	return app, nil
}

// Start arms every app and replayer.
func (c *Fleet) Start() {
	if c.started {
		return
	}
	c.started = true
	for _, a := range c.Apps {
		a.Start()
	}
	for _, rp := range c.Replays {
		rp.Start()
	}
}

// Started reports whether the fleet's apps have been armed.
func (c *Fleet) Started() bool { return c.started }

// RunPhase runs warmup (discarded) then a measurement window.
// It may be called repeatedly; each call opens a fresh window.
//
// The error is non-nil only when the engine stopped early: the run
// context was canceled (errors.Is(err, context.Canceled)), the
// watchdog aborted the unit (errors.Is(err, sim.ErrWatchdog)), or —
// in paranoid mode — an invariant was violated at window end.
func (c *Fleet) RunPhase(warmup, measure sim.Duration) error {
	c.Start()
	c.advance(c.Eng.Now().Add(warmup))
	if err := c.runErr(); err != nil {
		return err
	}
	for _, a := range c.Apps {
		a.ResetMetrics()
	}
	for _, rp := range c.Replays {
		rp.ResetMetrics()
	}
	c.busyBefore = c.CPU.BusySnapshot()
	c.ctxBefore, c.cycBefore, c.iosBefore = c.CPU.Counters()
	c.measStart = c.Eng.Now()
	c.retiredR, c.retiredW, c.retiredSlack = 0, 0, 0
	if c.Opts.Control.Paranoid {
		c.snapshotParanoid()
	}
	c.advance(c.Eng.Now().Add(measure))
	if err := c.runErr(); err != nil {
		return err
	}
	if c.Opts.Control.Paranoid {
		return c.checkAndNote()
	}
	return nil
}

// RunTo starts the fleet (if necessary) and runs the engine to
// absolute virtual time t — the open-loop variant of RunPhase used by
// the burst and illustrate experiments. Error semantics match
// RunPhase.
func (c *Fleet) RunTo(t sim.Time) error {
	c.Start()
	c.advance(t)
	if err := c.runErr(); err != nil {
		return err
	}
	if c.Opts.Control.Paranoid {
		return c.checkAndNote()
	}
	return nil
}

// advance moves all virtual clocks to t: a plain RunUntil on the
// single-engine runtime, the conservative-window barrier loop when
// sharded.
func (c *Fleet) advance(t sim.Time) {
	if len(c.shardEngs) == 0 {
		c.Eng.RunUntil(t)
		return
	}
	c.runSharded(t)
}

// runSharded advances a sharded fleet to t. The global engine's
// pending events define the barriers: between consecutive global
// events every shard advances independently (in parallel) through the
// half-open window ending at the barrier, then the barrier's global
// events run alone, with every shard paused at the barrier instant.
//
// This ordering is byte-identical to the single-engine run as long as
// the global engine only hosts events scheduled OUTSIDE shard windows
// (setup-time schedules like churn arrivals, or events scheduled by
// other global events): such events always carry smaller sequence
// numbers than any same-instant event scheduled during the run, so the
// single engine would also run them first.
func (c *Fleet) runSharded(t sim.Time) {
	for {
		nt, ok := c.Eng.PeekNext()
		if !ok || nt > t {
			break
		}
		c.runWindows(nt, false)
		c.applyRetires()
		if c.anyEngErr() != nil {
			return
		}
		c.Eng.RunUntil(nt)
		if c.Eng.Err() != nil {
			return
		}
	}
	// Final window: inclusive of t, like RunUntil.
	c.runWindows(t, true)
	c.applyRetires()
	c.Eng.RunUntil(t)
}

// runWindows advances every shard to the window edge t — exclusive
// (RunBefore) at a barrier, inclusive (RunUntil) for the final window.
// Shards share no mutable state inside a window: cross-shard effects
// (tenant teardown's global half) are queued and applied at the
// barrier by the coordinator.
func (c *Fleet) runWindows(t sim.Time, inclusive bool) {
	run := func(e *sim.Engine) {
		if inclusive {
			e.RunUntil(t)
		} else {
			e.RunBefore(t)
		}
	}
	if len(c.shardEngs) == 1 {
		// One shard still runs the barrier protocol (so single-device
		// fleets exercise it), just without goroutines.
		c.winActive = true
		run(c.shardEngs[0])
		c.winActive = false
		return
	}
	c.winActive = true
	var wg sync.WaitGroup
	for _, se := range c.shardEngs {
		wg.Add(1)
		go func(e *sim.Engine) {
			defer wg.Done()
			run(e)
		}(se)
	}
	wg.Wait()
	c.winActive = false
}

// applyRetires applies the global half of every tenant teardown that
// drained during the last shard window, in (drain time, tenant ID)
// order. Same-instant teardowns of different tenants commute — the
// rosters, counters, and cgroup removals they touch are disjoint — so
// this order matches the single-engine run observably even when it
// differs by engine sequence.
func (c *Fleet) applyRetires() {
	if len(c.pendingRetire) == 0 {
		return
	}
	sort.Slice(c.pendingRetire, func(i, j int) bool {
		a, b := c.pendingRetire[i], c.pendingRetire[j]
		if a.at != b.at {
			return a.at < b.at
		}
		return a.t.ID < b.t.ID
	})
	pend := c.pendingRetire
	c.pendingRetire = nil
	for _, p := range pend {
		c.finishRemoveGlobal(p.t, p.done)
	}
}

// anyEngErr returns the first sticky stop reason across the global and
// shard engines (global first, then shard order, so the report is
// deterministic even when several watchdogs tripped in one window).
func (c *Fleet) anyEngErr() error {
	if err := c.Eng.Err(); err != nil {
		return err
	}
	for _, se := range c.shardEngs {
		if err := se.Err(); err != nil {
			return err
		}
	}
	return nil
}

// runErr surfaces the engines' sticky stop reason, recording it once
// as an obs incident so aborts show up in exports and summaries.
func (c *Fleet) runErr() error {
	err := c.anyEngErr()
	if err == nil {
		return nil
	}
	if c.Obs != nil && !c.incidentNoted {
		c.incidentNoted = true
		kind := obs.IncidentCancel
		if errors.Is(err, sim.ErrWatchdog) {
			kind = obs.IncidentWatchdog
		}
		c.Obs.RecordIncident(kind, err.Error())
	}
	return err
}

// checkAndNote runs the paranoid invariant suite and records a
// violation as an obs incident before returning it.
func (c *Fleet) checkAndNote() error {
	err := c.CheckInvariants()
	if err != nil && c.Obs != nil {
		c.Obs.RecordIncident(obs.IncidentInvariant, err.Error())
	}
	return err
}
