package sim

import (
	"testing"

	"gcs/internal/clock"
	"gcs/internal/des"
)

// TestDriverStateMatchesClockDrivers pins the harness's reusable rate
// driver, in both the serial and the sharded harness, against the clock
// package's reference drivers: all must produce identical rate
// trajectories from the same forked streams. The harness re-implements
// the drivers with reseedable per-node state so rewiring allocates
// nothing; this test is what keeps the implementations from silently
// diverging (a changed jitter formula or draw order on either side, or
// a sharded driver scheduling on the wrong engine, fails here).
func TestDriverStateMatchesClockDrivers(t *testing.T) {
	cases := []struct {
		name string
		spec DriverSpec
		ref  func(node int, rho float64, driveRand *des.Rand) clock.Driver
	}{
		{"RandomWalk", DriverSpec{Kind: DriveRandomWalk, Interval: 0.5},
			func(node int, rho float64, driveRand *des.Rand) clock.Driver {
				return clock.RandomWalk{Rho: rho, Interval: 0.5, Rand: driveRand.Fork(uint64(node))}
			}},
		{"BangBang", DriverSpec{Kind: DriveBangBang, Interval: 0.7},
			func(node int, rho float64, driveRand *des.Rand) clock.Driver {
				return clock.BangBang{Rho: rho, Interval: 0.7, StartHigh: node%2 == 0}
			}},
		{"Constant", DriverSpec{Kind: DriveConstant, Interval: 1},
			func(node int, rho float64, driveRand *des.Rand) clock.Driver {
				return clock.ConstantRate{Rate: 1}
			}},
	}
	// Each harness yields its clocks and a stepper running the execution
	// up to a given time.
	harnesses := []struct {
		name  string
		build func(cfg Config) ([]*clock.HardwareClock, func(at float64))
	}{
		{"serial", func(cfg Config) ([]*clock.HardwareClock, func(at float64)) {
			s := New(cfg)
			return s.Clocks, s.Advance
		}},
		{"sharded", func(cfg Config) ([]*clock.HardwareClock, func(at float64)) {
			cfg.Parallel, cfg.Shards, cfg.Workers = true, 2, 1
			ps := NewParallel(cfg)
			return ps.Clocks, func(at float64) { ps.P.Run(at, 1) }
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				N: 4, Seed: 9, Horizon: 10, Rho: 0.02, MaxDelay: 0.01,
				Topology: TopologySpec{Kind: TopoRing},
				Driver:   tc.spec,
			}
			for _, h := range harnesses {
				clocks, advance := h.build(cfg)
				checkDriverTrajectories(t, h.name, cfg, clocks, advance, tc.ref)
			}
		})
	}
}

// checkDriverTrajectories compares a harness's clock rates against a
// reference wiring of bare clocks under the clock package's drivers.
func checkDriverTrajectories(t *testing.T, harness string, cfg Config, clocks []*clock.HardwareClock,
	advance func(at float64), ref func(node int, rho float64, driveRand *des.Rand) clock.Driver) {
	t.Helper()

	// Reference wiring: bare clocks driven by the clock package's
	// drivers from the same per-node streams the harness forks
	// (root seed -> fork 0xd81fe -> fork node).
	en := des.NewEngine()
	driveRand := des.NewRand(cfg.Seed).Fork(0xd81fe)
	want := make([]*clock.HardwareClock, cfg.N)
	for i := 0; i < cfg.N; i++ {
		want[i] = clock.New(en, 1)
		ref(i, cfg.Rho, driveRand).Install(en, want[i])
	}

	// Rates are pure functions of driver events, so comparing them at a
	// grid of times compares the whole trajectory.
	for at := 0.25; at <= cfg.Horizon; at += 0.25 {
		advance(at)
		en.Run(at)
		for i := 0; i < cfg.N; i++ {
			if got, want := clocks[i].Rate(), want[i].Rate(); got != want {
				t.Fatalf("%s t=%v node %d: harness rate %v, clock-driver rate %v", harness, at, i, got, want)
			}
		}
	}
	for i := 0; i < cfg.N; i++ {
		gmn, gmx := clocks[i].RateBoundsSeen()
		wmn, wmx := want[i].RateBoundsSeen()
		if gmn != wmn || gmx != wmx {
			t.Fatalf("%s node %d rate bounds diverged: harness [%v,%v], reference [%v,%v]",
				harness, i, gmn, gmx, wmn, wmx)
		}
	}
}
