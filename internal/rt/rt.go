// Package rt is the real-time runtime: the same GCS node logic the DES
// harness runs (internal/gcs against the internal/seam interfaces), but
// executed as one goroutine per node over in-process channels, with
// per-node drifting wall clocks and genuinely concurrent bounded-delay
// message passing. Where the DES proves properties of the algorithm
// under a perfectly controlled event order, rt checks that those
// properties survive a real scheduler: the cross-harness validation
// suite runs the same scenarios through both and asserts both satisfy
// the same analytic skew bounds.
//
// One simulated time unit is one wall second. Under testing/synctest
// (GOEXPERIMENT=synctest) the wall clock is the bubble's fake clock, so
// a 10-unit horizon completes in milliseconds, timers fire in exact
// deadline order, and runs are deterministic; outside a bubble the same
// code runs against real time (the `gcsim realtime` subcommand).
//
// Concurrency structure:
//
//   - host: one per node. A mutex serializes the node's event
//     executions; a buffered channel feeds them to the node's
//     goroutine. Everything that touches gcs.Node state — timer
//     firings, deliveries, fault injections — is enqueued and runs
//     under the host lock on the host's goroutine. The host is also the
//     node's des.Scheduler, so the DES harness's rate driver
//     (sim.Driver) and fault schedules (fault.Injector) run on it
//     unchanged, with the same draws in the same order.
//   - DriftClock (clock.go): the node's hardware clock, a
//     piecewise-linear function of wall time with rate in
//     [1-rho, 1+rho] (or outside it, under rate-excursion faults).
//   - Router (router.go): shared topology + transport; adjacency under
//     an RWMutex, deliveries via time.AfterFunc into the receiver's
//     queue. Lock order is host -> router, never the reverse.
//   - The sampler runs on the Run caller's goroutine, sleeping between
//     skew observations; its sampling instants are offset by an
//     irrational-ish phase (0.382 of a period) so they never coincide
//     with driver flips or churn rotations.
package rt

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"gcs/internal/des"
	"gcs/internal/fault"
	"gcs/internal/gcs"
	"gcs/internal/sim"
)

// samplePhase offsets sampling instants to (k+samplePhase)*SampleEvery,
// dodging exact coincidence with periodic drivers and churn (which fire
// at integer multiples of their intervals).
const samplePhase = 0.382

// host owns one node's execution context: a goroutine draining an event
// queue, with a mutex held around each event so the sampler can take
// consistent off-goroutine readings between events.
type host struct {
	r *Runtime

	mu     sync.Mutex
	events chan func()

	clk  *DriftClock
	node *gcs.Node

	// delayRand draws message delays (router, sender-side), forked like
	// the parallel DES harness's so the draw sequence depends only on
	// this node's own event order.
	delayRand des.Rand
	// msgFaults counts the message faults drawn for this node's sends.
	msgFaults fault.Stats

	sendBuf []int // reusable broadcast fan-out buffer
}

var _ des.Scheduler = (*host)(nil)

// Now implements des.Scheduler: the run's simulated time.
func (h *host) Now() float64 { return h.r.simNow() }

// ScheduleArg implements des.Scheduler for the node's rate driver and
// fault schedule: a wall timer that enqueues fn(arg) onto the host's
// goroutine at simulated time t. The returned ref is the zero EventRef;
// at shutdown pending firings are dropped by enqueue.
func (h *host) ScheduleArg(t float64, label string, fn des.ArgHandler, arg uint64) des.EventRef {
	time.AfterFunc(durOf(t-h.r.simNow()), func() { h.enqueue(func() { fn(arg) }) })
	return des.EventRef{}
}

// enqueue hands fn to the host's goroutine, giving up at shutdown.
// Never called while holding any host lock (timer and churn goroutines
// only), so a full queue blocks the producer without deadlock risk.
func (h *host) enqueue(fn func()) {
	select {
	case h.events <- fn:
	case <-h.r.done:
	}
}

// loop is the node goroutine: one event at a time, under the host lock.
func (h *host) loop(wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		select {
		case fn := <-h.events:
			h.mu.Lock()
			fn()
			h.mu.Unlock()
			h.r.events.Add(1)
		case <-h.r.done:
			return
		}
	}
}

// Runtime is one real-time execution of a scenario Config. Build with
// New, execute once with Run. Unlike sim.Simulation it is not reusable:
// a run's goroutines, timers, and channels are built fresh inside Run so
// the whole lifecycle fits in one synctest bubble.
type Runtime struct {
	cfg    sim.Config
	hosts  []*host
	router *Router
	start  time.Time
	done   chan struct{}
	events atomic.Uint64

	// Sampler-owned observation state.
	vals   []float64
	edges  [][2]int
	report sim.SkewReport
	reconv sim.Reconvergence

	// churnMu guards the churn chain's timers: the rotate chain re-arms
	// them from its own goroutine while shutdown stops them from Run's.
	churnMu             sync.Mutex
	churnT, starRemoveT *time.Timer
}

// Supports reports whether the real-time runtime can execute cfg,
// returning a descriptive error for the features only the DES harness
// provides.
func Supports(cfg sim.Config) error {
	switch {
	case cfg.Parallel:
		return fmt.Errorf("rt: Parallel selects the sharded DES engine; the real-time runtime is inherently concurrent")
	case cfg.CheckGradient:
		return fmt.Errorf("rt: CheckGradient requires the DES harness's consistent-cut distance tracking")
	case cfg.Churn.Kind == sim.ChurnVolatile:
		return fmt.Errorf("rt: volatile churn is not implemented in the real-time runtime (use the DES harness)")
	}
	return nil
}

// New validates cfg and prepares a runtime. The config semantics are
// sim's: same defaulting, same analytic bounds, same fault plan.
func New(cfg sim.Config) (*Runtime, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := Supports(cfg); err != nil {
		return nil, err
	}
	return &Runtime{cfg: cfg.WithDefaults()}, nil
}

// simNow is the simulated time: wall seconds since the run started.
func (r *Runtime) simNow() float64 { return time.Since(r.start).Seconds() } //gcslint:allow nondeterminism — rt's simulated time IS wall time by definition

// closed reports whether the run is shutting down; detached goroutines
// (churn) check it so late timer firings cannot mutate a finished run.
func (r *Runtime) closed() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// discover relays a fresh edge to both endpoint nodes (the immediate
// beacon exchange the DES harness's discovery subscriber performs).
// inline runs the callbacks directly — only legal during single-threaded
// setup, before the node goroutines launch.
func (r *Runtime) discover(u, v int, inline bool) {
	hu, hv := r.hosts[u], r.hosts[v]
	if inline {
		hu.node.OnEdgeAdded(v)
		hv.node.OnEdgeAdded(u)
		return
	}
	hu.enqueue(func() { hu.node.OnEdgeAdded(v) })
	hv.enqueue(func() { hv.node.OnEdgeAdded(u) })
}

// addStar inserts the complete star around hub, firing discovery for
// every edge actually added.
func (r *Runtime) addStar(hub int, inline bool) {
	for v := 0; v < r.cfg.N; v++ {
		if v != hub && r.router.addEdge(hub, v) {
			r.discover(hub, v, inline)
		}
	}
}

// removeStar tears down hub's star, keeping edges shared with keepHub's
// (dyngraph.RotatingStar's keep rule).
func (r *Runtime) removeStar(hub, keepHub int) {
	for v := 0; v < r.cfg.N; v++ {
		if v == hub || v == keepHub || hub == keepHub {
			continue
		}
		r.router.removeEdge(hub, v)
	}
}

// sample takes one skew observation: snapshot the edge set (router lock
// only), then read each node under its host lock. Under synctest the
// sampler only wakes once every event at earlier instants has been fully
// processed and every goroutine is durably blocked, so the observation
// is a consistent cut; in real time it is a best-effort cut, which the
// non-bubble smoke tests account for with slack.
func (r *Runtime) sample() {
	r.edges = r.router.snapshotEdges(r.edges[:0])
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, h := range r.hosts {
		h.mu.Lock()
		if h.node.Down() {
			// NaN-poison crashed nodes, like the DES sampler: NaN fails every
			// comparison below, so down nodes drop out of both skew folds.
			r.vals[i] = math.NaN()
		} else {
			l := h.node.Logical()
			r.vals[i] = l
			if l < lo {
				lo = l
			}
			if l > hi {
				hi = l
			}
		}
		h.mu.Unlock()
	}
	spread := hi - lo
	if hi < lo {
		spread = 0 // every node down: no live pair to skew
	}
	if spread > r.report.MaxGlobalSkew {
		r.report.MaxGlobalSkew = spread
	}
	for _, e := range r.edges {
		if d := math.Abs(r.vals[e[0]] - r.vals[e[1]]); d > r.report.MaxAdjacentSkew {
			r.report.MaxAdjacentSkew = d
		}
	}
	r.report.FinalGlobalSkew = spread
	if r.cfg.Faults.Enabled() {
		r.reconv.Observe(r.simNow(), spread)
	}
	r.report.Samples++
}

// sleepUntil blocks until simulated time t (wall-clock sleep; fake-clock
// advance inside a synctest bubble).
func (r *Runtime) sleepUntil(t float64) {
	if d := t - r.simNow(); d > 0 {
		time.Sleep(durOf(d))
	}
}

func stopTimer(t *time.Timer) {
	if t != nil {
		t.Stop()
	}
}

// Run executes the scenario to its horizon and returns the report in
// the shared sim.SkewReport shape. Everything — hosts, timers, channels,
// goroutines — is built inside Run, so a synctest test simply calls Run
// inside the bubble; Run returns only after every node goroutine has
// exited. Call once per Runtime.
func (r *Runtime) Run() sim.SkewReport {
	cfg := r.cfg
	n := cfg.N
	r.start = time.Now() //gcslint:allow nondeterminism — run epoch; all rt timestamps are offsets from it
	r.done = make(chan struct{})
	r.report = sim.SkewReport{}
	r.vals = make([]float64, n)

	// PRNG streams, forked with the same subsystem ids as the DES
	// harness. Driver and fault draws therefore match the DES draw for
	// draw (TestScheduleParity); skews are compared by bound only, since
	// message interleavings differ.
	root := des.NewRand(cfg.Seed)
	var delayRoot, driveRand, phaseRand, faultRoot des.Rand
	root.ForkInto(0xde1a9, &delayRoot)
	root.ForkInto(0xd81fe, &driveRand)
	root.ForkInto(0x9a5e, &phaseRand)

	r.router = newRouter(r, n, cfg.MinDelay, cfg.MaxDelay)
	r.hosts = make([]*host, n)
	for i := 0; i < n; i++ {
		h := &host{r: r, events: make(chan func(), 128)}
		h.clk = newDriftClock(h, r.start)
		h.node = gcs.New(i, h.clk, cfg.Node, r.router, r.router)
		delayRoot.ForkInto(uint64(i), &h.delayRand)
		r.hosts[i] = h
	}

	// Initial topology. The rotating star ignores the backbone spec and
	// adds its first star through the counting/discovering path at t=0,
	// exactly like dyngraph.RotatingStar.Install against an empty graph.
	star := cfg.Churn.Kind == sim.ChurnRotatingStar
	if star {
		r.addStar(0, true)
	} else {
		for _, e := range cfg.Topology.Edges(n) {
			r.router.installEdge(e.U, e.V)
		}
	}

	// The DES harness's rate driver and fault injector, each node's
	// events running on its host.
	for i, h := range r.hosts {
		sim.NewDriver(&r.cfg, h, h.clk, i).Install(&driveRand)
	}
	spec := cfg.Faults
	inj := fault.NewInjector()
	if spec.Enabled() {
		root.ForkInto(0xfa07, &faultRoot)
		if spec.MessageFaults() {
			m := fault.NewMessages()
			m.Wire(spec, cfg.MaxDelay, n, &faultRoot)
			r.router.faults = m
		}
		inj.Wire(spec, n, cfg.Rho, &faultRoot, fault.Hooks{
			Crash:   func(i int) { r.hosts[i].node.Crash() },
			Recover: func(i int) { r.hosts[i].node.Recover() },
			SetRate: func(i int, rate float64) { r.hosts[i].clk.SetRate(rate) },
		})
		inj.Install(func(i int) des.Scheduler { return r.hosts[i] })
		r.reconv.Reset(cfg.GlobalSkewBound())
	}

	// Rotating-star churn chain, on its own goroutine timeline. k, old,
	// and next are owned by the chain (each firing schedules the next, so
	// accesses are ordered through the timers).
	if star {
		k := 0
		var rotate func()
		rotate = func() {
			if r.closed() {
				return
			}
			old := k % n
			k++
			next := k % n
			r.addStar(next, false)
			r.churnMu.Lock()
			r.starRemoveT = time.AfterFunc(durOf(cfg.Churn.Overlap), func() {
				if !r.closed() {
					r.removeStar(old, next)
				}
			})
			r.churnT.Reset(durOf(cfg.Churn.Period))
			r.churnMu.Unlock()
		}
		r.churnT = time.AfterFunc(durOf(cfg.Churn.Period), rotate)
	}

	// Start every node at its drawn beacon phase, then launch the node
	// goroutines. Setup so far ran single-threaded at t=0.
	for _, h := range r.hosts {
		h.node.Start(phaseRand.Range(0, cfg.Node.BeaconEvery))
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for _, h := range r.hosts {
		go h.loop(&wg)
	}

	// Sampler: t=0, then phase-offset periodic instants, then the horizon.
	r.sample()
	for k := 0; ; k++ {
		next := (float64(k) + samplePhase) * cfg.SampleEvery
		if next >= cfg.Horizon {
			break
		}
		r.sleepUntil(next)
		r.sample()
	}
	r.sleepUntil(cfg.Horizon)
	r.sample()

	// Quiesce before shutdown: periodic drivers and churn land on exact
	// integer instants, so a wave of events can fire at precisely the
	// horizon and race the done signal through the loop select (which
	// picks pseudorandomly between ready cases, bubble or not), making
	// EventsExecuted schedule-dependent. A grace sleep lets that wave
	// drain first — under synctest it is an exact barrier, since the fake
	// clock only advances once every goroutine is durably blocked again.
	time.Sleep(time.Millisecond)

	// Shutdown: release the node goroutines, then stop the clocks'
	// timers. In-flight deliveries and driver and fault firings only
	// ever enqueue, and enqueue gives up once done is closed.
	close(r.done)
	wg.Wait()
	for _, h := range r.hosts {
		h.mu.Lock()
		for _, tm := range h.clk.timers {
			tm.Stop()
		}
		h.mu.Unlock()
	}
	r.churnMu.Lock()
	stopTimer(r.churnT)
	stopTimer(r.starRemoveT)
	r.churnMu.Unlock()

	rep := &r.report
	rep.Bound = cfg.GlobalSkewBound()
	rep.Transport = r.router.Stats()
	rep.EventsExecuted = r.events.Load()
	rep.EdgeAdds, rep.EdgeRemoves = r.router.churnStats()
	clocks := make([]*DriftClock, n)
	nodes := make([]*gcs.Node, n)
	for i, h := range r.hosts {
		clocks[i], nodes[i] = h.clk, h.node
	}
	sim.FoldNodes(rep, clocks, nodes)
	if spec.Enabled() {
		fs := inj.Stats()
		for _, h := range r.hosts {
			fs.Merge(h.msgFaults)
		}
		rep.Faults = fs
		rep.ReconvergenceTime = r.reconv.Time(fs)
	}
	return *rep
}

// Run wires and executes cfg in one call — the rt analog of sim.Run.
func Run(cfg sim.Config) (sim.SkewReport, error) {
	r, err := New(cfg)
	if err != nil {
		return sim.SkewReport{}, err
	}
	return r.Run(), nil
}
