package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"gcs/internal/sim"
)

// simWorkload is one scenario run on the simulation harness, repeated
// for the measurement budget.
type simWorkload struct {
	config func(seed uint64) sim.Config
	// digest is the report digest recorded at defaultSeed.
	digest string
	// check holds the workload's own invariants on a report.
	check func(sim.SkewReport) error
}

var simWorkloads = map[string]simWorkload{
	// grid_serial is the beacon hot path on one serial engine: a 64x64
	// grid (4096 nodes, ~9k pending events) with random-walk drift, no
	// churn, faults or gradient check. The short horizon gives a run of
	// about half a second, so a budget holds dozens of runs.
	"grid_serial": {
		config: func(seed uint64) sim.Config {
			return sim.Config{
				N:        4096,
				Seed:     seed,
				Horizon:  2,
				Rho:      0.01,
				MaxDelay: 0.01,
				Topology: sim.TopologySpec{Kind: sim.TopoGrid, W: 64, H: 64},
				Driver:   sim.DriverSpec{Kind: sim.DriveRandomWalk, Interval: 1},
			}
		},
		digest: "6a384a06735cefb7adc70829fd51e449d31d5e13ded720efcfc86099e8a8d10a",
		check: func(r sim.SkewReport) error {
			if !(r.MaxGlobalSkew <= r.Bound) {
				return fmt.Errorf("global skew %v exceeds the bound %v", r.MaxGlobalSkew, r.Bound)
			}
			return nil
		},
	},
	// churn_sharded exercises what grid_serial skips: the sharded engine
	// (8 shards, nproc workers), volatile overlay churn with discovery,
	// a fault plan, and the radius-capped gradient check.
	"churn_sharded": {
		config: func(seed uint64) sim.Config {
			return sim.Config{
				N:        4096,
				Seed:     seed,
				Horizon:  5,
				Rho:      0.01,
				MaxDelay: 0.01,
				Topology: sim.TopologySpec{Kind: sim.TopoRing},
				Driver:   sim.DriverSpec{Kind: sim.DriveRandomWalk, Interval: 1},
				Churn: sim.ChurnSpec{
					Kind: sim.ChurnVolatile, Lifetime: 1.5, Absence: 1.0, ExtraEdges: 1024,
				},
				Faults: sim.FaultSpec{
					Drop: 0.05, CrashEvery: 20, CrashDowntime: 0.5, RateExcursionEvery: 20,
				},
				CheckGradient:   true,
				GradientRadius:  8,
				GradientSources: 256,
				Parallel:        true,
				Shards:          8,
				Workers:         runtime.NumCPU(),
			}
		},
		digest: "58bbcbd20710ff6baba0a554a7f772ecfb301317402dd2785f18158462d3fad4",
		check: func(r sim.SkewReport) error {
			if r.Faults.Total() == 0 {
				return errors.New("the fault plan injected nothing")
			}
			if math.IsInf(r.ReconvergenceTime, 0) || math.IsNaN(r.ReconvergenceTime) {
				return fmt.Errorf("no finite re-convergence (%v)", r.ReconvergenceTime)
			}
			return nil
		},
	},
}

// digest fingerprints every field of a report; %v prints each float
// in its shortest exact form.
func digest(r sim.SkewReport) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", r)))
	return hex.EncodeToString(sum[:])
}

// simRunner runs one workload's scenario through a reused arena and
// checks every report: its digest must equal the recorded one (the
// default seed) or the first run's (any other seed), and the
// workload's own invariants must hold.
type simRunner struct {
	w     simWorkload
	cfg   sim.Config
	arena *sim.Arena
	ref   string
	t     *tally
}

func newSimRunner(w simWorkload, seed uint64, t *tally) *simRunner {
	r := &simRunner{w: w, cfg: w.config(seed), arena: sim.NewArena(), t: t}
	if seed == defaultSeed {
		r.ref = w.digest
	}
	return r
}

// run executes cfg to its horizon, traced when tr is not nil, checks
// the report and returns the host time of the run.
func (r *simRunner) run(cfg sim.Config, tr *tracer) (time.Duration, sim.SkewReport) {
	if tr != nil {
		tr.begin()
	}
	start := time.Now()
	rpt := r.arena.Run(cfg)
	el := time.Since(start)
	if tr != nil {
		tr.end()
	}
	r.check(rpt)
	return el, rpt
}

// check counts one checked run.
func (r *simRunner) check(rpt sim.SkewReport) {
	d := digest(rpt)
	if r.ref == "" {
		r.ref = d
	}
	err := r.w.check(rpt)
	r.t.check(d == r.ref && err == nil, "report digest %s, want %s; invariants: %v", d, r.ref, err)
}

// repeat runs cfg until budget has passed and at least minRuns runs are
// done, returning each run's host time and the events they fired.
func (r *simRunner) repeat(cfg sim.Config, tr *tracer, budget time.Duration, minRuns int) ([]time.Duration, uint64) {
	var times []time.Duration
	var events uint64
	start := time.Now()
	for len(times) < minRuns || time.Since(start) < budget {
		el, rpt := r.run(cfg, tr)
		times = append(times, el)
		events += rpt.EventsExecuted
	}
	return times, events
}

// coldWirings is how many cold wirings setup_s is the median of.
const coldWirings = 31

// coldSetup is the median host time of k wirings of cfg into fresh
// arenas, each after a collection so earlier garbage is not charged.
func coldSetup(cfg sim.Config, k int) float64 {
	ts := make([]float64, k)
	for i := range ts {
		runtime.GC()
		start := time.Now()
		a := sim.NewArena()
		if cfg.Parallel {
			a.Parallel(cfg)
		} else {
			a.Sim(cfg)
		}
		ts[i] = time.Since(start).Seconds()
	}
	return median(ts)
}

// memMB is the memory the Go runtime holds from the OS after a forced
// collection returns every free span: MemStats.Sys minus HeapReleased.
func memMB() float64 {
	debug.FreeOSMemory()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys-ms.HeapReleased) / (1 << 20)
}

func runSim(w simWorkload, o options, m metrics, t *tally) error {
	r := newSimRunner(w, o.seed, t)
	if o.trace {
		traceSim(r, o.budget, m)
		return nil
	}
	setup := coldSetup(r.cfg, coldWirings)
	r.run(r.cfg, nil) // warms the arena; the first run is the reference of a non-default seed
	times, events := r.repeat(r.cfg, nil, o.budget, 3)
	secs := seconds(times)
	run := percentile(secs, 25)
	fmt.Printf("samples %d runs\n", len(secs))
	m.set("run_s", "s", run)
	m.set("events_per_s", "1/s", float64(events)/float64(len(secs))/run)
	m.set("cells_per_s", "1/s", 1/run)
	m.set("job_p50_s", "s", percentile(secs, 50))
	m.set("job_p90_s", "s", percentile(secs, 90))
	m.set("setup_s", "s", setup)
	m.set("mem_mb", "MB", memMB())
	runtime.KeepAlive(r.arena) // the arena's memory is what mem_mb measures
	return nil
}

// setHooks installs tr's hooks on every engine of the arena's
// simulation for cfg, or removes them when tr is nil. Hooks survive the
// arena's in-place rewiring, so they stay until removed.
func setHooks(a *sim.Arena, cfg sim.Config, tr *tracer) {
	if cfg.Parallel {
		p := a.Parallel(cfg).P
		n := p.NumShards()
		for i := 0; i <= n; i++ {
			en := p.Global()
			if i < n {
				en = p.Shard(i)
			}
			if tr == nil {
				en.SetTraceHook(nil)
			} else {
				en.SetTraceHook(tr.hook(i))
			}
		}
		if tr != nil {
			tr.windows = p.Windows
			tr.pending = func() float64 {
				total := 0
				for i := 0; i < n; i++ {
					total += p.Shard(i).Pending()
				}
				return float64(total) / float64(n)
			}
		}
		return
	}
	en := a.Sim(cfg).Engine
	if tr == nil {
		en.SetTraceHook(nil)
		return
	}
	en.SetTraceHook(tr.hook(0))
	tr.pending = func() float64 { return float64(en.Pending()) }
}

// traceSim is the per-layer pass. Untraced runs give the baseline of
// the tracing overhead (and, on the sharded engine, the Workers=1 time
// of the speedup); traced runs attribute host time to labels. The
// sharded engine is traced at Workers=1, where its engines run on one
// goroutine and the hook calls are ordered.
func traceSim(r *simRunner, budget time.Duration, m metrics) {
	cfg := r.cfg
	r.run(cfg, nil) // warms the arena; the first run is the reference of a non-default seed

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rpt := r.arena.Run(cfg)
	runtime.ReadMemStats(&after)
	r.check(rpt)

	// The serial engine spends a third of the budget untraced; the
	// sharded one a quarter at Workers=nproc and a quarter at Workers=1.
	// base is the untraced time of the traced config.
	traceCfg := cfg
	var base []time.Duration
	tracedBudget := budget
	if cfg.Parallel {
		traceCfg.Workers = 1
		wn, _ := r.repeat(cfg, nil, budget/4, 2)
		base, _ = r.repeat(traceCfg, nil, budget/4, 2)
		m.set("psim.speedup", "x", median(seconds(base))/median(seconds(wn)))
		tracedBudget -= 2 * (budget / 4)
	} else {
		base, _ = r.repeat(cfg, nil, budget/3, 2)
		tracedBudget -= budget / 3
	}
	tr := newTracer()
	setHooks(r.arena, traceCfg, tr)
	traced, _ := r.repeat(traceCfg, tr, tracedBudget, 2)
	setHooks(r.arena, traceCfg, nil)

	m.set("trace_overhead_frac", "ratio", median(seconds(traced))/median(seconds(base))-1)
	if cfg.Parallel {
		m.set("psim.coord_frac", "ratio", 1-tr.coverage())
		m.set("des.windows", "count", float64(tr.runWindows))
		m.set("des.events_per_window", "count", float64(rpt.EventsExecuted)/float64(tr.runWindows))
	}
	d := cfg.WithDefaults()
	labelMetrics(m, tr, d.MinDelay, d.MaxDelay)
	m.set("des.events", "count", float64(rpt.EventsExecuted))
	m.set("transport.sent", "count", float64(rpt.Transport.Sent))
	m.set("transport.delivered", "count", float64(rpt.Transport.Delivered))
	m.set("transport.dropped", "count", float64(rpt.Transport.Dropped))
	m.set("gcs.jumps", "count", float64(rpt.TotalJumps))
	m.set("sim.gradient_recomputes", "count", float64(rpt.DistanceRecomputes))
	m.set("sim.allocs_per_run", "count", float64(after.Mallocs-before.Mallocs))
	m.set("sim.bytes_per_run", "B", float64(after.TotalAlloc-before.TotalAlloc))
	m.set("dyngraph.edge_adds", "count", float64(rpt.EdgeAdds))
	m.set("dyngraph.edge_removes", "count", float64(rpt.EdgeRemoves))
	m.set("fault.injected", "count", float64(rpt.Faults.Total()))
}

// labelMetrics reports what tr attributed to event labels and layers,
// with the standalone queue and timer measurements; minDelay and
// maxDelay give the workload's delay law.
func labelMetrics(m metrics, tr *tracer, minDelay, maxDelay float64) {
	is := func(label string) func(string) bool { return func(l string) bool { return l == label } }
	prefix := func(p string) func(string) bool { return func(l string) bool { return strings.HasPrefix(l, p) } }
	m.set("trace.coverage_frac", "ratio", tr.coverage())
	if tr.wall > 0 {
		lt, _ := tr.layerTimes()
		for _, l := range layers {
			m.set(l+".time_frac", "ratio", float64(lt[l])/float64(tr.wall))
		}
	}
	m.set("des.pending_mean", "count", tr.pendingMean())
	m.set("des.hold_ns", "ns", holdNs(tr.pendingMean(), minDelay, maxDelay))
	m.set("clock.timer_ns", "ns", timerNs())
	m.set("transport.deliver_ns", "ns", tr.meanNs(is("transport.deliver")))
	m.set("gcs.beacon_ns", "ns", tr.meanNs(is("gcs.beacon")))
	m.set("sim.sample_ns", "ns", tr.meanNs(is("sim.sample")))
	m.set("psim.deliver_ns", "ns", tr.meanNs(is("psim.deliver")))
	m.set("dyngraph.churn_ns", "ns", tr.meanNs(prefix("churn.")))
	m.set("fault.event_ns", "ns", tr.meanNs(prefix("fault.")))
}
