package sim

import (
	"math"
	"os"
	"testing"
)

// The benchmark suite tracks the per-run cost of full scenarios — beacon
// traffic, churn, and skew sampling included — across the workload
// shapes the paper's evaluation sweeps: plain rings and grids at three
// scales (up to the 10k-node smoke scenario), the hub-heavy
// maximally-dynamic rotating star, and a churn-heavy volatile overlay.
// Every benchmark runs through a reused Arena with one warm-up run
// before the measured loop, so the numbers report the steady-state
// per-run cost a sweep actually pays — wiring is amortized away, and
// same-shape re-runs are allocation-free (TestArenaSecondRunZeroAlloc).
// `gcsim bench` runs the suite and emits BENCH_<rev>.json for cross-PR
// tracking.

func benchScenario(b *testing.B, cfg Config) {
	b.Helper()
	b.ReportAllocs()
	a := NewArena()
	// Warm the arena outside the measured loop (b.Loop resets the timer
	// and allocation counters on its first call).
	if rpt := a.Run(cfg); rpt.MaxGlobalSkew > rpt.Bound {
		b.Fatalf("skew %v exceeded bound %v", rpt.MaxGlobalSkew, rpt.Bound)
	}
	for b.Loop() {
		rpt := a.Run(cfg)
		if rpt.MaxGlobalSkew > rpt.Bound {
			b.Fatalf("skew %v exceeded bound %v", rpt.MaxGlobalSkew, rpt.Bound)
		}
	}
}

func ringConfig(n int) Config {
	return Config{
		N:        n,
		Seed:     1,
		Horizon:  10,
		Rho:      0.01,
		MaxDelay: 0.01,
		Topology: TopologySpec{Kind: TopoRing},
		Driver:   DriverSpec{Kind: DriveRandomWalk, Interval: 1},
	}
}

func gridConfig(w, h int) Config {
	cfg := ringConfig(w * h)
	cfg.Topology = TopologySpec{Kind: TopoGrid, W: w, H: h}
	return cfg
}

// BenchmarkRing256 seeds the performance trajectory: one full 256-node
// ring simulation per iteration. PR-1 baseline: ~72.5ms/op, ~544k
// allocs/op; the zero-allocation hot path PR took it to ~26ms/op, ~7k
// allocs/op; arena reuse removes the remaining per-run wiring.
func BenchmarkRing256(b *testing.B) {
	benchScenario(b, ringConfig(256))
}

// BenchmarkRing1024 scales the ring 4x to expose superlinear costs
// (diameter-dependent bound computation, heap depth).
func BenchmarkRing1024(b *testing.B) {
	benchScenario(b, ringConfig(1024))
}

// BenchmarkRing4096 is the first past-4k scale point of the sweep
// grids: steady-state cost must stay linear in n.
func BenchmarkRing4096(b *testing.B) {
	benchScenario(b, ringConfig(4096))
}

// BenchmarkRing1024Faults is BenchmarkRing1024 under a combined fault
// plan (drops, dups, delay spikes, crash-recover, rate excursions).
// Compare against BenchmarkRing1024 for the injection overhead; the
// unfaulted benchmarks double as the zero-valued-FaultSpec cost pin,
// since their configs never arm the fault subsystem. A faulted run may
// legitimately breach the analytic bound, so the check is the fault
// gate — faults injected, re-convergence reached — not the bound.
func BenchmarkRing1024Faults(b *testing.B) {
	cfg := ringConfig(1024)
	cfg.Faults = FaultSpec{
		Drop: 0.05, Dup: 0.02, DelaySpike: 0.05,
		CrashEvery: 20, RateExcursionEvery: 20,
	}
	b.ReportAllocs()
	a := NewArena()
	check := func(rpt SkewReport) {
		if rpt.Faults.Total() == 0 {
			b.Fatal("fault plan injected nothing")
		}
		if math.IsInf(rpt.ReconvergenceTime, 1) {
			b.Fatalf("no finite re-convergence: %v", rpt.ReconvergenceTime)
		}
	}
	check(a.Run(cfg))
	for b.Loop() {
		check(a.Run(cfg))
	}
}

// BenchmarkRing10k is the 10k-node smoke scenario: the scale target the
// arena/sweep work exists for. It must complete comfortably
// within the CI budget (tens of seconds for warm-up plus one iteration).
func BenchmarkRing10k(b *testing.B) {
	benchScenario(b, ringConfig(10000))
}

// parallelBenchConfig shards a ring config for the parallel engine.
// Workers is left 0 (GOMAXPROCS): the report is worker-invariant, so
// the numbers are comparable across machines while the wall clock
// reflects the host's parallelism.
func parallelBenchConfig(n, shards int) Config {
	cfg := ringConfig(n)
	cfg.Parallel = true
	cfg.Shards = shards
	return cfg
}

// BenchmarkRing10kParallel is BenchmarkRing10k on the sharded parallel
// engine (8 shards, GOMAXPROCS workers). Compare against BenchmarkRing10k
// for the speedup; on a single-core host it instead measures the
// sharding overhead (windowing, cross-shard merge) at zero parallelism.
func BenchmarkRing10kParallel(b *testing.B) {
	benchScenario(b, parallelBenchConfig(10000, 8))
}

// BenchmarkRing100k is the 100k-node scale target, gated behind
// GCS_BENCH_LARGE=1 because one run costs tens of seconds: the horizon
// and sampling rate are reduced so an iteration stays within a CI job
// step. Serial reference for BenchmarkRing100kParallel.
func BenchmarkRing100k(b *testing.B) {
	if os.Getenv("GCS_BENCH_LARGE") == "" {
		b.Skip("set GCS_BENCH_LARGE=1 to run the 100k-node benchmarks")
	}
	cfg := ringConfig(100000)
	cfg.Horizon = 5
	cfg.SampleEvery = 0.5
	benchScenario(b, cfg)
}

// BenchmarkRing100kParallel is the tentpole scale point: Ring100k on the
// sharded engine (16 shards). Gated with its serial twin.
func BenchmarkRing100kParallel(b *testing.B) {
	if os.Getenv("GCS_BENCH_LARGE") == "" {
		b.Skip("set GCS_BENCH_LARGE=1 to run the 100k-node benchmarks")
	}
	cfg := parallelBenchConfig(100000, 16)
	cfg.Horizon = 5
	cfg.SampleEvery = 0.5
	benchScenario(b, cfg)
}

// BenchmarkGrid1024 runs a 32x32 torus-free grid: 4x the ring's edge
// density per node, a much smaller diameter, and heavier broadcast
// fan-out per beacon.
func BenchmarkGrid1024(b *testing.B) {
	benchScenario(b, gridConfig(32, 32))
}

// BenchmarkGrid4096 is the 64x64 grid scale point.
func BenchmarkGrid4096(b *testing.B) {
	benchScenario(b, gridConfig(64, 64))
}

// BenchmarkRotatingStar256 is the hub-heavy, maximally dynamic workload:
// every rotation tears down and rebuilds n-1 edges, dropping beacons in
// flight, and the hub's broadcast fans out to all other nodes.
func BenchmarkRotatingStar256(b *testing.B) {
	benchScenario(b, Config{
		N:        256,
		Seed:     1,
		Horizon:  10,
		Rho:      0.01,
		MaxDelay: 0.01,
		Driver:   DriverSpec{Kind: DriveRandomWalk, Interval: 1},
		Churn:    ChurnSpec{Kind: ChurnRotatingStar, Period: 2, Overlap: 0.5},
	})
}

// BenchmarkVolatileChurn512 is the churn-heavy workload: a 512-node ring
// backbone with 256 volatile overlay edges flapping on exponential
// timers, exercising the in-flight drop path and slot reuse.
func BenchmarkVolatileChurn512(b *testing.B) {
	benchScenario(b, Config{
		N:        512,
		Seed:     1,
		Horizon:  10,
		Rho:      0.01,
		MaxDelay: 0.01,
		Topology: TopologySpec{Kind: TopoRing},
		Driver:   DriverSpec{Kind: DriveRandomWalk, Interval: 1},
		Churn: ChurnSpec{
			Kind:       ChurnVolatile,
			Lifetime:   1.5,
			Absence:    1.0,
			ExtraEdges: 256,
		},
	})
}

// BenchmarkSweepGradientGrid measures the parallel sweep runner over the
// gradient verification grid shape (small n so CI stays fast): the
// wall-clock ratio between this and its Serial twin is the speedup the
// `gcsim sweep`/`gcsim gradient` -workers flag buys.
func BenchmarkSweepGradientGrid(b *testing.B) {
	cells := benchSweepCells()
	b.ReportAllocs()
	for b.Loop() {
		RunSweep(cells, 0)
	}
}

// BenchmarkSweepGradientGridSerial is the workers=1 baseline for
// BenchmarkSweepGradientGrid.
func BenchmarkSweepGradientGridSerial(b *testing.B) {
	cells := benchSweepCells()
	b.ReportAllocs()
	for b.Loop() {
		RunSweep(cells, 1)
	}
}

func benchSweepCells() []SweepCell {
	var cells []SweepCell
	for _, n := range []int{64, 128} {
		for _, drv := range []DriverSpec{
			{Kind: DriveRandomWalk, Interval: 0.5},
			{Kind: DriveBangBang, Interval: 0.7},
		} {
			for _, topo := range []TopologySpec{
				{Kind: TopoRing},
				{Kind: TopoLine},
			} {
				cells = append(cells, SweepCell{
					Name: topo.Kind.String(),
					Cfg: Config{
						N: n, Seed: CellSeed(1, len(cells)), Horizon: 10,
						Rho: 0.01, MaxDelay: 0.01, Topology: topo, Driver: drv,
					},
				})
			}
		}
	}
	return cells
}
