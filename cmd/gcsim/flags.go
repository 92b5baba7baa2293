package main

import (
	"flag"

	"gcs/internal/sim"
)

// scenarioFlags is the scenario flag set the default command and
// `realtime` share. Plain values bind straight into a sim.Config; the
// topology, driver and churn names resolve through sim's name table
// (the one the sweep service uses) in config.
type scenarioFlags struct {
	cfg                 sim.Config
	topo, driver, churn string
	gridW, extra        int
	period, overlap     float64
	lifetime, absence   float64
}

// addScenarioFlags registers the scenario flags on fs, with horizon as
// the command's default run length.
func addScenarioFlags(fs *flag.FlagSet, horizon float64) *scenarioFlags {
	f := &scenarioFlags{}
	c := &f.cfg
	fs.IntVar(&c.N, "n", 16, "number of nodes")
	fs.Uint64Var(&c.Seed, "seed", 1, "PRNG seed")
	fs.Float64Var(&c.Horizon, "horizon", horizon, "seconds to run (wall seconds under realtime)")
	fs.Float64Var(&c.Rho, "rho", 0.01, "hardware clock drift bound")
	fs.Float64Var(&c.MaxDelay, "delay", 0.01, "message delay bound (seconds)")
	fs.StringVar(&f.topo, "topo", "ring", "topology: line|ring|star|grid|complete|twochains")
	fs.IntVar(&f.gridW, "grid-w", 0, "grid width (topo=grid; 0 = most square)")
	fs.StringVar(&f.driver, "driver", "randomwalk", "clock driver: constant|randomwalk|bangbang")
	fs.Float64Var(&c.Driver.Interval, "interval", 1, "driver rate-change interval")
	fs.StringVar(&f.churn, "churn", "none", "churn: none|volatile|rotatingstar")
	fs.Float64Var(&f.period, "period", 2, "rotating-star period")
	fs.Float64Var(&f.overlap, "overlap", 0.5, "rotating-star overlap")
	fs.Float64Var(&f.lifetime, "lifetime", 1.5, "volatile edge mean lifetime")
	fs.Float64Var(&f.absence, "absence", 1.0, "volatile edge mean absence")
	fs.IntVar(&f.extra, "extra-edges", 10, "volatile candidate edge count")
	fs.Float64Var(&c.Node.BeaconEvery, "beacon", 0.1, "beacon interval (hardware time)")
	fs.Float64Var(&c.SampleEvery, "sample", 0.1, "skew sampling period (real time)")
	addFaultFlags(fs, &c.Faults)
	return f
}

// config returns the parsed scenario, failing the command on an
// unknown name.
func (f *scenarioFlags) config() sim.Config {
	cfg := f.cfg
	var err error
	if cfg.Topology, err = sim.ParseTopology(f.topo, cfg.N); err != nil {
		fail("%v", err)
	}
	if f.gridW != 0 && cfg.Topology.Kind == sim.TopoGrid {
		cfg.Topology.W, cfg.Topology.H = f.gridW, cfg.N/f.gridW
	}
	if cfg.Driver, err = sim.ParseDriver(f.driver, cfg.Driver.Interval); err != nil {
		fail("%v", err)
	}
	if cfg.Churn, err = sim.ParseChurn(f.churn, cfg.N); err != nil {
		fail("%v", err)
	}
	switch cfg.Churn.Kind {
	case sim.ChurnVolatile:
		cfg.Churn.Lifetime, cfg.Churn.Absence, cfg.Churn.ExtraEdges = f.lifetime, f.absence, f.extra
	case sim.ChurnRotatingStar:
		cfg.Churn.Period, cfg.Churn.Overlap = f.period, f.overlap
	}
	return cfg
}

// addFaultFlags registers the -fault-* flags on fs, bound to spec.
// Untouched flags leave spec zero-valued, so the fault subsystem stays
// wired out entirely.
func addFaultFlags(fs *flag.FlagSet, spec *sim.FaultSpec) {
	fs.Float64Var(&spec.Drop, "fault-drop", 0, "per-message drop probability")
	fs.Float64Var(&spec.Dup, "fault-dup", 0, "per-message duplication probability")
	fs.Float64Var(&spec.DelaySpike, "fault-spike", 0, "per-message delay-spike probability (delay beyond the MaxDelay bound)")
	fs.Float64Var(&spec.SpikeFactor, "fault-spike-factor", 0, "spiked delay cap as a multiple of MaxDelay (0 = default 4)")
	fs.Float64Var(&spec.CrashEvery, "fault-crash-every", 0, "mean seconds between per-node crashes (0 = no crashes)")
	fs.Float64Var(&spec.CrashDowntime, "fault-crash-downtime", 0, "mean downtime before a crashed node recovers (0 = default 1)")
	fs.BoolVar(&spec.CrashStop, "fault-crash-stop", false, "crashed nodes never recover (crash-stop instead of crash-recover)")
	fs.Float64Var(&spec.RateExcursionEvery, "fault-rate-every", 0, "mean seconds between per-node hardware-rate excursions outside [1-rho, 1+rho] (0 = none)")
	fs.Float64Var(&spec.RateExcursionFactor, "fault-rate-factor", 0, "excursion magnitude cap as a multiple of rho (0 = default 3)")
	fs.Float64Var(&spec.RateExcursionFor, "fault-rate-for", 0, "mean excursion duration in seconds (0 = default 0.5)")
	fs.Float64Var(&spec.Until, "fault-until", 0, "inject fault onsets only before this simulated time (0 = horizon/2)")
}
