package sim

import (
	"math"
	"slices"

	"gcs/internal/clock"
	"gcs/internal/des"
	"gcs/internal/dyngraph"
	"gcs/internal/fault"
	"gcs/internal/gcs"
	"gcs/internal/seam"
	"gcs/internal/transport"
)

// core is the wiring the serial Simulation and the sharded ParallelSim
// share. Both embed it and keep only what really differs between them:
// their engine(s), their transport, and their value scan. The core owns
// the config, the graph, the per-node clock/node/driver pools, the PRNG
// streams, churn and discovery, beacon phases, fault injection, the
// gradient checker, the skew-sample folds, and report finalisation.
//
// A wiring runs begin (config, root stream), then resetGraph and the
// harness's own transport and pool setup (grow) in the order that
// harness needs, then wireRun (nodes, drivers, churn, phases, faults,
// sampling state). The order of the
// root-stream forks and of the engine schedules inside those steps is
// the order a fresh wiring has always used, so reused harnesses stay
// bit-identical to freshly wired ones.
type core struct {
	Cfg    Config
	Graph  *dyngraph.Dynamic
	Clocks []*clock.HardwareClock
	Nodes  []*gcs.Node

	// global is the engine that runs churn, fault schedules and skew
	// sampling: the serial engine itself, or the sharded engine's
	// coordinator, whose events run with every shard barriered.
	global *des.Engine
	// scan is the harness's value scan: it fills vals with every node's
	// logical clock (NaN for crashed nodes) and returns the live extrema.
	scan func() (lo, hi float64)

	// clocks/nodes/drivers are the pools backing Clocks and Nodes, which
	// are views of the first Cfg.N entries; drivers[i] drives clocks[i].
	clocks  []*clock.HardwareClock
	nodes   []*gcs.Node
	drivers []*Driver

	// Reseedable PRNG streams, one per subsystem, matching the fork ids a
	// fresh wiring would draw so reuse stays bit-identical.
	root      des.Rand
	driveRand des.Rand
	phaseRand des.Rand

	// subscribed records the one-time discovery subscription (the graph
	// keeps its subscribers across Reset).
	subscribed bool
	// initialEdges is the backbone edge set materialized once per
	// topology shape (edgeCfg) and reused by the churner setup:
	// Topology.Edges is O(n) or worse, so it must not be recomputed per
	// run.
	edgesOK      bool
	edgeCfg      edgeKey
	initialEdges []dyngraph.Edge
	// volCands caches the volatile-churn candidate set, which is a
	// deterministic function of volKey (the rejection sampling draws from
	// a dedicated root fork), so same-config re-runs skip the O(n) map
	// rebuild.
	volCands []dyngraph.Edge
	volKey   volCandKey

	// vals is the reused logical-clock sample buffer; edgeFn is the
	// long-lived per-edge observer and sampleFn the periodic sampler.
	// They exist so that sampling allocates nothing.
	vals     []float64
	edgeFn   func(dyngraph.Edge)
	sampleFn func()
	// trace, when non-nil, receives one row of logical values per sample.
	trace *TraceRecorder
	// gradient, when non-nil (Config.CheckGradient), folds every sample
	// into per-distance skew buckets.
	gradient    *GradientChecker
	report      SkewReport
	lastSampleT float64
	// started records whether the periodic sampler has been installed.
	started bool

	// Fault-injection state (Config.Faults). msgFaults and injector are
	// grow-once pools; faultHooks holds the long-lived callbacks into
	// nodes and clocks, and faultSched puts every node's fault schedule
	// on the global engine. downMask aliases the injector's live mask so
	// the value scan can exclude crashed nodes.
	faultOn    bool
	msgFaults  *fault.Messages
	injector   *fault.Injector
	faultHooks fault.Hooks
	faultSched func(int) des.Scheduler
	faultRoot  des.Rand
	downMask   []bool
	reconv     Reconvergence
}

// edgeKey identifies the inputs the cached initial edge set depends on.
type edgeKey struct {
	topo TopologySpec
	n    int
	star bool
}

// volCandKey identifies the inputs the cached volatile candidate set
// depends on: the backbone shape, the node count, the request size, and
// the seed driving the rejection sampling.
type volCandKey struct {
	edges edgeKey
	seed  uint64
	extra int
}

// setup installs the long-lived closures; scan is the harness's value
// scan.
func (c *core) setup(scan func() (lo, hi float64)) {
	c.scan = scan
	c.edgeFn = func(e dyngraph.Edge) {
		if d := math.Abs(c.vals[e.U] - c.vals[e.V]); d > c.report.MaxAdjacentSkew {
			c.report.MaxAdjacentSkew = d
		}
	}
	c.sampleFn = func() {
		c.observe()
		c.global.ScheduleAfter(c.Cfg.SampleEvery, "sim.sample", c.sampleFn)
	}
}

// begin validates and defaults cfg and reseeds the root stream. It
// returns the defaulted config. New/Reset keep the panic contract for
// programmer errors; the error-returning boundary is sim.Run/RunSweep,
// which Validate first.
func (c *core) begin(cfg Config) Config {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	cfg = cfg.WithDefaults()
	c.Cfg = cfg
	c.root.Reseed(cfg.Seed)
	return cfg
}

// resetGraph resets the graph to the scenario's initial edges, creating
// it on first use.
func (c *core) resetGraph() {
	cfg := &c.Cfg
	star := cfg.Churn.Kind == ChurnRotatingStar
	if key := (edgeKey{topo: cfg.Topology, n: cfg.N, star: star}); !c.edgesOK || key != c.edgeCfg {
		if star {
			c.initialEdges = nil
		} else {
			c.initialEdges = cfg.Topology.Edges(cfg.N)
		}
		c.edgeCfg = key
		c.edgesOK = true
	}
	if c.Graph == nil {
		c.Graph = dyngraph.NewDynamic(cfg.N, c.initialEdges)
	} else {
		c.Graph.Reset(cfg.N, c.initialEdges)
	}
}

// grow extends the pools to n nodes and sets the live views. Node i's
// clock and rate driver run on engineOf(i); the node sends through net
// and reads its neighborhood through topo.
func (c *core) grow(n int, engineOf func(i int) *des.Engine, net seam.Sender, topo seam.Topology) {
	if k := n - len(c.clocks); k > 0 {
		// Exact-size growth: append's doubling would leave a cold wiring
		// several hundred kB of garbage at 4096 nodes.
		c.clocks = slices.Grow(c.clocks, k)
		c.nodes = slices.Grow(c.nodes, k)
		c.drivers = slices.Grow(c.drivers, k)
	}
	for len(c.clocks) < n {
		i := len(c.clocks)
		en := engineOf(i)
		hw := clock.New(en, 1)
		c.clocks = append(c.clocks, hw)
		c.nodes = append(c.nodes, gcs.New(i, hw, c.Cfg.Node, net, topo))
		c.drivers = append(c.drivers, NewDriver(&c.Cfg, en, hw, i))
	}
	c.Clocks = c.clocks[:n]
	c.Nodes = c.nodes[:n]
}

// wireRun arms everything after the transport: it resets every clock
// and node and installs its rate driver, subscribes discovery, installs
// the churner, starts the beacon loops at their drawn phases, wires the
// fault plan, and clears the sampling state. It returns the
// message-fault plan the harness's transport must draw from, or nil
// when the plan has no message faults.
func (c *core) wireRun() *fault.Messages {
	cfg := &c.Cfg
	c.root.ForkInto(0xd81fe, &c.driveRand)
	for i, nd := range c.Nodes {
		c.Clocks[i].Reset(1)
		nd.Reset(cfg.Node)
		c.drivers[i].Install(&c.driveRand)
	}

	// Neighbor discovery: subscribe before the churner installs, so even
	// edges a churn process adds at time 0 trigger an immediate beacon
	// exchange across the fresh edge.
	if !c.subscribed {
		c.Graph.Subscribe(discovery{c})
		c.subscribed = true
	}
	if ch := c.churner(); ch != nil {
		ch.Install(c.global, c.Graph)
	}

	c.root.ForkInto(0x9a5e, &c.phaseRand)
	for _, nd := range c.Nodes {
		nd.Start(c.phaseRand.Range(0, cfg.Node.BeaconEvery))
	}

	msgFaults := c.wireFaults()
	c.gradient = wireGradient(c.gradient, *cfg)
	if cap(c.vals) < cfg.N {
		c.vals = make([]float64, cfg.N)
	} else {
		c.vals = c.vals[:cfg.N]
	}
	c.trace = nil
	c.report = SkewReport{}
	c.lastSampleT = 0
	c.started = false
	return msgFaults
}

// wireFaults arms fault injection for one run. The fault root is forked
// from the scenario root (never advancing it, so a zero-valued Spec
// leaves every other stream bit-identical). Crash/recover and rate
// excursions are global-engine events: in the sharded harness they run
// with every shard barriered, so touching a node or clock on any shard
// is safe. Message faults are returned for the harness's transport.
func (c *core) wireFaults() *fault.Messages {
	cfg := &c.Cfg
	c.faultOn = cfg.Faults.Enabled()
	c.downMask = nil
	if !c.faultOn {
		return nil
	}
	c.root.ForkInto(0xfa07, &c.faultRoot)
	var msgFaults *fault.Messages
	if cfg.Faults.MessageFaults() {
		if c.msgFaults == nil {
			c.msgFaults = fault.NewMessages()
		}
		c.msgFaults.Wire(cfg.Faults, cfg.MaxDelay, cfg.N, &c.faultRoot)
		msgFaults = c.msgFaults
	}
	if c.injector == nil {
		c.injector = fault.NewInjector()
		c.faultHooks = fault.Hooks{
			Crash:   func(i int) { c.Nodes[i].Crash() },
			Recover: func(i int) { c.Nodes[i].Recover() },
			SetRate: func(i int, rate float64) { c.Clocks[i].SetRate(rate) },
		}
		c.faultSched = func(int) des.Scheduler { return c.global }
	}
	c.injector.Wire(cfg.Faults, cfg.N, cfg.Rho, &c.faultRoot, c.faultHooks)
	c.injector.Install(c.faultSched)
	c.downMask = c.injector.Down()
	c.reconv.Reset(cfg.GlobalSkewBound())
	return msgFaults
}

// wireGradient returns the checker for cfg, reusing prev when its shape
// still fits (reset in place) and replacing it otherwise; nil when the
// check is off.
func wireGradient(prev *GradientChecker, cfg Config) *GradientChecker {
	if !cfg.CheckGradient {
		return nil
	}
	wantSources := cfg.GradientSources
	if wantSources >= cfg.N {
		wantSources = 0 // sampling every node is the exact check
	}
	r, src := 0, 0
	if prev != nil {
		r, src = prev.shape()
	}
	if prev == nil || prev.nodes() != cfg.N || r != cfg.GradientRadius || src != wantSources {
		return newGradientChecker(cfg.N, cfg.GradientRadius, wantSources)
	}
	prev.reset()
	return prev
}

// discovery relays topology events to the algorithm layer: both
// endpoints of a fresh edge beacon immediately over it instead of
// waiting up to BeaconEvery, which is what the paper's catch-up
// argument assumes of nodes that become adjacent. Churn runs on the
// global engine, so in the sharded harness the handlers run serially
// with every shard barriered.
type discovery struct{ c *core }

func (d discovery) EdgeAdded(t float64, e dyngraph.Edge) {
	d.c.Nodes[e.U].OnEdgeAdded(e.V)
	d.c.Nodes[e.V].OnEdgeAdded(e.U)
}

func (d discovery) EdgeRemoved(t float64, e dyngraph.Edge) {}

func (c *core) churner() dyngraph.Churner {
	cfg := &c.Cfg
	switch cfg.Churn.Kind {
	case ChurnNone:
		return nil
	case ChurnVolatile:
		if key := (volCandKey{edges: c.edgeCfg, seed: cfg.Seed, extra: cfg.Churn.ExtraEdges}); c.volCands == nil || key != c.volKey {
			c.volCands = volatileCandidates(cfg.N, cfg.Churn.ExtraEdges, c.initialEdges, c.root.Fork(0xca9d))
			c.volKey = key
		}
		return dyngraph.VolatileEdges{
			Candidates: c.volCands,
			Lifetime:   cfg.Churn.Lifetime,
			Absence:    cfg.Churn.Absence,
			Rand:       c.root.Fork(0xc400),
		}
	case ChurnRotatingStar:
		return dyngraph.RotatingStar{
			Period:  cfg.Churn.Period,
			Overlap: cfg.Churn.Overlap,
		}
	}
	panic("sim: unknown churn kind")
}

// volatileCandidates draws extra distinct random edges over n nodes that
// are not part of the static backbone. Rejection sampling is capped, so
// on dense backbones it can exhaust its attempt budget short of the
// request; the remainder is then filled by deterministic enumeration of
// the unused non-backbone pairs, so the churner is under-provisioned
// only when the graph genuinely has fewer candidates than requested.
func volatileCandidates(n, extra int, backboneEdges []dyngraph.Edge, r *des.Rand) []dyngraph.Edge {
	backbone := map[dyngraph.Edge]bool{}
	for _, e := range backboneEdges {
		backbone[e] = true
	}
	seen := map[dyngraph.Edge]bool{}
	var out []dyngraph.Edge
	for attempts := 0; len(out) < extra && attempts < 100*extra+100; attempts++ {
		u := r.Intn(n)
		v := r.Intn(n)
		if u == v {
			continue
		}
		e := dyngraph.E(u, v)
		if backbone[e] || seen[e] {
			continue
		}
		seen[e] = true
		out = append(out, e)
	}
	for u := 0; u < n && len(out) < extra; u++ {
		for v := u + 1; v < n && len(out) < extra; v++ {
			e := dyngraph.Edge{U: u, V: v}
			if backbone[e] || seen[e] {
				continue
			}
			out = append(out, e)
		}
	}
	return out
}

// Driver is one node's reusable rate driver: long-lived closures over a
// reseedable PRNG, scheduling on the node's des.Scheduler, so rewiring
// a harness re-installs drivers without allocating. It is the one rate
// driver every harness runs: the serial and sharded engines schedule it
// on the engine that owns the node's clock, the real-time runtime on
// the node's wall-timer host. The install sequence — rate draws, event
// labels, scheduling order — reproduces
// clock.RandomWalk/BangBang/ConstantRate exactly, which
// TestDriverStateMatchesClockDrivers pins for both DES harnesses.
type Driver struct {
	cfg    *Config
	sched  des.Scheduler
	clk    interface{ SetRate(float64) }
	node   int
	rand   des.Rand
	high   bool
	stepFn des.ArgHandler
	bangFn des.ArgHandler
}

// NewDriver returns node's driver for the scenario cfg points at,
// setting clk's rate and scheduling its rate changes on sched.
func NewDriver(cfg *Config, sched des.Scheduler, clk interface{ SetRate(float64) }, node int) *Driver {
	d := &Driver{cfg: cfg, sched: sched, clk: clk, node: node}
	d.stepFn = func(uint64) { d.step() }
	d.bangFn = func(uint64) { d.bang() }
	return d
}

// Install arms the driver for one run. driveRand is the shared
// per-wiring driver stream; the node id keys this node's fork of it.
func (d *Driver) Install(driveRand *des.Rand) {
	switch d.cfg.Driver.Kind {
	case DriveConstant:
		d.clk.SetRate(1)
	case DriveRandomWalk:
		driveRand.ForkInto(uint64(d.node), &d.rand)
		d.step()
	case DriveBangBang:
		d.high = d.node%2 == 0
		d.bang()
	default:
		panic("sim: unknown driver kind")
	}
}

// step is one RandomWalk move: a fresh in-band rate, then the next move
// after a jittered interval.
func (d *Driver) step() {
	d.clk.SetRate(d.rand.Range(1-d.cfg.Rho, 1+d.cfg.Rho))
	d.sched.ScheduleArg(d.sched.Now()+d.cfg.Driver.Interval*(0.5+d.rand.Float64()), "clock.walk", d.stepFn, 0)
}

// bang is one BangBang half-period: pin the rate to a band edge, then
// alternate after Interval.
func (d *Driver) bang() {
	if d.high {
		d.clk.SetRate(1 + d.cfg.Rho)
	} else {
		d.clk.SetRate(1 - d.cfg.Rho)
	}
	d.high = !d.high
	d.sched.ScheduleArg(d.sched.Now()+d.cfg.Driver.Interval, "clock.bang", d.bangFn, 0)
}

// scanRange fills vals[from:to] with the nodes' logical clocks and
// returns the range's live extrema (+Inf/-Inf when every node in it is
// down).
func (c *core) scanRange(from, to int) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for i := from; i < to; i++ {
		if c.downMask != nil && c.downMask[i] {
			// A crashed node has no logical clock. Poisoning its sample with
			// NaN makes every consumer skip it for free: NaN fails the lo/hi
			// comparisons here, the |L_u - L_v| > max test in edgeFn, and the
			// gradient checker's bucket comparisons.
			c.vals[i] = math.NaN()
			continue
		}
		l := c.Nodes[i].Logical()
		c.vals[i] = l
		if l < lo {
			lo = l
		}
		if l > hi {
			hi = l
		}
	}
	return lo, hi
}

// observe records one skew sample at the global engine's current time:
// the harness's value scan, then the global and adjacent skew folds,
// the trace row, the gradient fold and re-convergence tracking. It
// reuses the sample buffer and edge observer, so sampling allocates
// nothing.
func (c *core) observe() {
	lo, hi := c.scan()
	spread := hi - lo
	if hi < lo {
		spread = 0 // every node down: no live pair to skew
	}
	if spread > c.report.MaxGlobalSkew {
		c.report.MaxGlobalSkew = spread
	}
	now := c.global.Now()
	if c.trace != nil {
		c.trace.Record(now, c.vals)
	}
	if c.gradient != nil {
		c.gradient.observe(c.Graph, c.vals)
	}
	// Max over edges is order-independent, so the unordered allocation-free
	// iteration is deterministic in its result.
	c.Graph.RangeCurrentEdges(c.edgeFn)
	c.report.FinalGlobalSkew = spread
	if c.faultOn {
		c.reconv.Observe(now, spread)
	}
	c.report.Samples++
	c.lastSampleT = now
}

// startSampling installs the periodic skew sampler on first call.
func (c *core) startSampling() {
	if !c.started {
		c.started = true
		c.global.Schedule(c.global.Now(), "sim.sample", c.sampleFn)
	}
}

// finish completes the report once every engine reached the horizon.
// It takes the end-of-run sample at exactly the horizon, unless the
// periodic sampler already landed there (Horizon a multiple of
// SampleEvery), then fills every field that does not depend on the
// transport; ts, executed and msgFaults are the harness's transport
// counters, fired-event count and message-fault counters. The totals
// are recomputed from node snapshots on every call, so Run is
// idempotent: calling it after Advance-stepping, or twice, reports each
// jump/message/beacon exactly once.
func (c *core) finish(ts transport.Stats, executed uint64, msgFaults fault.Stats) SkewReport {
	cfg := &c.Cfg
	if c.report.Samples == 0 || c.lastSampleT < cfg.Horizon {
		c.observe()
	}
	c.report.Bound = cfg.GlobalSkewBound()
	c.report.Transport = ts
	c.report.EventsExecuted = executed
	c.report.EdgeAdds, c.report.EdgeRemoves = c.Graph.Stats()
	if c.gradient != nil {
		c.report.PerDistanceSkew = c.gradient.PerDistance()
		c.report.DistanceRecomputes = c.gradient.Recomputes()
	}
	FoldNodes(&c.report, c.Clocks, c.Nodes)
	if c.faultOn {
		fs := msgFaults
		fs.Merge(c.injector.Stats())
		c.report.Faults = fs
		c.report.ReconvergenceTime = c.reconv.Time(fs)
	}
	return c.report
}

// Gradient returns the simulation's gradient checker, or nil when
// Config.CheckGradient is off.
func (c *core) Gradient() *GradientChecker { return c.gradient }

// FoldNodes sets the report's per-node aggregates from every node's
// hardware clock and algorithm state: the range of hardware rates seen
// and the jump, message, beacon and discovery totals. It overwrites
// those fields, so folding twice counts each node once. Every harness
// (serial, sharded and the real-time runtime) folds its nodes through
// it.
func FoldNodes[C interface{ RateBoundsSeen() (min, max float64) }](r *SkewReport, clocks []C, nodes []*gcs.Node) {
	r.MinRateSeen, r.MaxRateSeen = math.Inf(1), math.Inf(-1)
	r.TotalJumps, r.TotalMessages = 0, 0
	r.TotalBeacons, r.TotalDiscoveries = 0, 0
	for i, nd := range nodes {
		mn, mx := clocks[i].RateBoundsSeen()
		if mn < r.MinRateSeen {
			r.MinRateSeen = mn
		}
		if mx > r.MaxRateSeen {
			r.MaxRateSeen = mx
		}
		snap := nd.Snap()
		r.TotalJumps += snap.Jumps
		r.TotalMessages += snap.Messages
		r.TotalBeacons += snap.Beacons
		r.TotalDiscoveries += snap.Discoveries
	}
}

// Reconvergence measures graceful degradation under fault injection. It
// tracks when the global skew last re-entered an analytic bound, one
// Observe per skew sample, and derives SkewReport.ReconvergenceTime
// from that. Every harness (serial, sharded and the real-time runtime)
// tracks through it.
type Reconvergence struct {
	bound     float64
	goodSince float64 // -1 while the skew is outside the bound
}

// Reset starts tracking against bound, with the skew counted as outside
// it until the first sample.
func (r *Reconvergence) Reset(bound float64) { r.bound, r.goodSince = bound, -1 }

// Observe folds the global skew spread sampled at time t.
func (r *Reconvergence) Observe(t, spread float64) {
	if spread > r.bound {
		r.goodSince = -1
	} else if r.goodSince < 0 {
		r.goodSince = t
	}
}

// Time derives the report metric from the run's merged fault stats: 0
// when no fault fired or the skew never left the bound after the last
// fault, the re-entry delay otherwise, and +Inf when the skew was still
// outside the bound at the horizon.
func (r *Reconvergence) Time(fs fault.Stats) float64 {
	if fs.Total() == 0 {
		return 0
	}
	if r.goodSince < 0 {
		return math.Inf(1)
	}
	if d := r.goodSince - fs.LastFaultT; d > 0 {
		return d
	}
	return 0
}
