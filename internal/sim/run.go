package sim

import (
	"gcs/internal/des"
	"gcs/internal/fault"
	"gcs/internal/transport"
)

// SkewReport summarizes one execution. All fields are deterministic
// functions of the Config (including Seed), which the determinism
// regression test relies on.
type SkewReport struct {
	// MaxGlobalSkew is the largest max-minus-min logical clock spread
	// observed at any sample point.
	MaxGlobalSkew float64
	// MaxAdjacentSkew is the largest |L_u - L_v| observed over any edge
	// present at a sample point (the gradient/local skew).
	MaxAdjacentSkew float64
	// FinalGlobalSkew is the spread at the horizon.
	FinalGlobalSkew float64
	// Bound is the scenario's analytic global skew bound.
	Bound float64
	// Samples counts skew observations (including t=0 and the horizon).
	Samples int

	Transport transport.Stats
	// EventsExecuted is the DES kernel's fired-event count.
	EventsExecuted uint64
	EdgeAdds       int
	EdgeRemoves    int

	// MinRateSeen/MaxRateSeen aggregate hardware rates across all nodes,
	// for validating the [1-rho, 1+rho] drift bound.
	MinRateSeen float64
	MaxRateSeen float64

	TotalJumps    int
	TotalMessages int
	TotalBeacons  int
	// TotalDiscoveries counts immediate beacons sent over fresh edges
	// (gcs neighbor discovery on EdgeAdded).
	TotalDiscoveries int

	// PerDistanceSkew, when Config.CheckGradient is set, holds the
	// largest |L_u - L_v| observed over any pair at current hop distance
	// d, indexed by d (index 0 unused). Nil when the check is off.
	PerDistanceSkew []float64
	// DistanceRecomputes counts the gradient checker's distance-matrix
	// BFS sweeps (one per topology-change epoch observed); 0 when the
	// check is off.
	DistanceRecomputes int

	// Faults counts the injected disturbances (Config.Faults); zero when
	// injection is off.
	Faults fault.Stats
	// ReconvergenceTime measures graceful degradation under injection:
	// the time from the last injected disturbance until the global skew
	// (over live nodes) re-entered the analytic bound. 0 when the skew
	// never left the bound after the last fault (or no fault fired);
	// +Inf when it was still outside at the horizon — the chaos CI gate
	// fails on that.
	ReconvergenceTime float64
}

// Simulation is one fully wired scenario on the serial engine, exposed
// so tests can inspect mid-run state (Cfg, Graph, Clocks and Nodes come
// from the shared harness core); most callers use Run. A Simulation is
// reusable: Reset rewires it in place for another config, recycling the
// engine's event pool, the graph's adjacency and history storage, the
// transport's flight arena, and every per-node object, so repeated runs
// of same-shape configs allocate nothing (see Arena).
type Simulation struct {
	core
	Engine *des.Engine
	Net    *transport.Network

	// delayFn is the long-lived base delay law over delayRand; it is
	// rebuilt only when the delay bounds change.
	delayRand des.Rand
	delayFn   transport.DelayFn
	delayMax  float64
	delayMin  float64
	// onMessage is the single delivery handler shared by every node.
	onMessage transport.Handler
}

// New wires a simulation from the config without running it.
func New(cfg Config) *Simulation {
	s := &Simulation{Engine: des.NewEngine()}
	s.global = s.Engine
	s.setup(s.scanAll)
	s.onMessage = func(m transport.Message) { s.Nodes[m.To].OnMessage(m.From, m.Value) }
	s.wire(cfg)
	return s
}

// Reset rewires the simulation in place for cfg, reusing every warm
// buffer and pooled object of the previous run. After Reset the
// simulation behaves exactly like New(cfg) — executions are
// bit-identical — but a same-shape rewire performs zero allocations.
func (s *Simulation) Reset(cfg Config) { s.wire(cfg) }

func (s *Simulation) wire(cfg Config) {
	cfg = s.begin(cfg)
	s.resetGraph()
	s.Engine.Reset()

	if s.delayFn == nil || s.delayMax != cfg.MaxDelay || s.delayMin != cfg.MinDelay {
		s.delayMax = cfg.MaxDelay
		s.delayMin = cfg.MinDelay
		// A zero MinDelay draws the bit-identical sequence as the legacy
		// UniformDelay law, so existing serial reports are unchanged.
		s.delayFn = transport.UniformDelayIn(cfg.MinDelay, cfg.MaxDelay, &s.delayRand)
	}
	s.root.ForkInto(0xde1a9, &s.delayRand)
	if s.Net == nil {
		s.Net = transport.New(s.Engine, s.Graph, s.delayFn, cfg.MaxDelay)
	} else {
		s.Net.Reset(s.delayFn, cfg.MaxDelay)
	}

	// Nodes are wired straight to the (stable) Network and Dynamic graph
	// through the harness seam — transport.Network is the seam.Sender and
	// dyngraph.Dynamic the seam.Topology, with no per-node adapters.
	s.grow(cfg.N, func(int) *des.Engine { return s.Engine }, s.Net, s.Graph)
	for i := range cfg.N {
		s.Net.SetHandler(i, s.onMessage)
	}
	s.Net.SetFaults(s.wireRun())
}

// scanAll is the serial value scan: every node, left to right.
func (s *Simulation) scanAll() (lo, hi float64) { return s.scanRange(0, len(s.Nodes)) }

// AttachTrace registers tr to receive one (time, per-node logical
// values) row per skew sample. tr is reset to the scenario's node count;
// call after wiring (New or Reset), before the simulation runs.
func (s *Simulation) AttachTrace(tr *TraceRecorder) {
	tr.Reset(s.Cfg.N)
	s.trace = tr
}

// Advance runs the execution up to real time t, installing the periodic
// skew sampler on first call. Tests step a live scenario through it; Run
// drives it to the horizon and finalizes the report.
func (s *Simulation) Advance(t float64) {
	s.startSampling()
	s.Engine.Run(t)
}

// Run executes the scenario to its horizon and returns the report.
func (s *Simulation) Run() SkewReport {
	s.Advance(s.Cfg.Horizon)
	return s.finish(s.Net.Stats(), s.Engine.Executed(), s.Net.FaultStats())
}

// Run wires and executes cfg in one call, dispatching to the sharded
// parallel harness when Config.Parallel is set. A malformed config is
// rejected with Validate's error before anything is wired — the
// harness-boundary contract a long-running sweep service relies on.
func Run(cfg Config) (SkewReport, error) {
	if err := cfg.Validate(); err != nil {
		return SkewReport{}, err
	}
	if cfg.Parallel {
		return NewParallel(cfg).Run(), nil
	}
	return New(cfg).Run(), nil
}
