package sim

// The chaos grid is the robustness counterpart of the scenario sweep: a
// fault-plan × topology × churn cross where every cell must inject at
// least one disturbance and re-converge — finite ReconvergenceTime —
// before the horizon. `gcsim chaos` runs it and the CI gate fails on
// any cell that does not re-enter the analytic bound.

// ChaosPlan names one fault plan of the chaos grid.
type ChaosPlan struct {
	Name string
	Spec FaultSpec
}

// ChaosPlans returns the canonical fault plans: each fault kind alone
// at an aggressive rate (so the gate attributes a failure to one
// mechanism), crash-stop separately from crash-recover, and a combined
// plan layering all four kinds at once.
func ChaosPlans() []ChaosPlan {
	return []ChaosPlan{
		{Name: "drop", Spec: FaultSpec{Drop: 0.25}},
		{Name: "dup", Spec: FaultSpec{Dup: 0.25}},
		{Name: "spike", Spec: FaultSpec{DelaySpike: 0.25, SpikeFactor: 4}},
		{Name: "crash", Spec: FaultSpec{CrashEvery: 4, CrashDowntime: 0.5}},
		{Name: "crashstop", Spec: FaultSpec{CrashEvery: 30, CrashStop: true}},
		{Name: "rates", Spec: FaultSpec{RateExcursionEvery: 2, RateExcursionFactor: 4, RateExcursionFor: 0.5}},
		{Name: "all", Spec: FaultSpec{
			Drop: 0.1, Dup: 0.05, DelaySpike: 0.1, SpikeFactor: 3,
			CrashEvery: 8, CrashDowntime: 0.5,
			RateExcursionEvery: 4, RateExcursionFactor: 3, RateExcursionFor: 0.5,
		}},
	}
}

// ChaosGrid crosses every chaos plan with a static ring, a static grid,
// and the rotating-star churn (the maximally dynamic pattern). Each
// cell's seed derives from the base seed and grid index (CellSeed), so
// the grid is a pure function of (n, seed, horizon, parallel).
func ChaosGrid(n int, seed uint64, horizon float64, parallel bool) []SweepCell {
	combos := []struct {
		label string
		topo  TopologySpec
		churn ChurnSpec
	}{
		{"ring", TopologySpec{Kind: TopoRing}, ChurnSpec{}},
		{"grid", SquareGrid(n), ChurnSpec{}},
		{"star", TopologySpec{}, ChurnSpec{Kind: ChurnRotatingStar, Period: 1, Overlap: 0.25}},
	}
	var cells []SweepCell
	for _, p := range ChaosPlans() {
		for _, c := range combos {
			cfg := Config{
				N:        n,
				Horizon:  horizon,
				Rho:      0.01,
				MaxDelay: 0.01,
				Topology: c.topo,
				Driver:   DriverSpec{Kind: DriveRandomWalk, Interval: 0.5},
				Churn:    c.churn,
				Faults:   p.Spec,
				Parallel: parallel,
				// The chaos sweep parallelizes across cells, so each parallel
				// cell runs its windows on one worker; the report is
				// worker-invariant either way.
				Workers: 1,
			}
			cfg.Seed = CellSeed(seed, len(cells))
			cells = append(cells, SweepCell{Name: p.Name + "/" + c.label, Cfg: cfg})
		}
	}
	return cells
}
