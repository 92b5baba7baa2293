package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"gcs/internal/sim"
)

// gradientCell is one scenario of the sweep grid together with its
// per-distance verdict, marshaled into the JSON report.
type gradientCell struct {
	Scenario string  `json:"scenario"`
	Topology string  `json:"topology"`
	Driver   string  `json:"driver"`
	Churn    string  `json:"churn"`
	N        int     `json:"n"`
	MaxDist  int     `json:"max_distance"`
	Samples  int     `json:"samples"`
	Epochs   int     `json:"distance_recomputes"`
	MaxSkew  float64 `json:"max_global_skew"`
	// PerDistanceSkew[d] / PerDistanceBound[d] pair observation and
	// analytic bound; index 0 unused.
	PerDistanceSkew  []float64 `json:"per_distance_skew"`
	PerDistanceBound []float64 `json:"per_distance_bound"`
	// WorstRatio is max over d of skew(d)/bound(d).
	WorstRatio float64 `json:"worst_ratio"`
	Violated   bool    `json:"violated"`
}

// runGradient implements `gcsim gradient`: it sweeps the gradient
// verification grid — every topology x driver combination plus the
// churn scenarios — with the per-sample GradientChecker attached,
// prints observed per-distance local skew against Config.GradientBound,
// and dumps gradient_skew.csv plus gradient_report.json for CI
// artifacts. The grid fans across -workers arena-backed goroutines
// (sim.RunSweep), with output bit-identical to a serial sweep. It exits
// nonzero if any scenario violates its bound at any distance.
func runGradient(args []string) {
	fs := flag.NewFlagSet("gcsim gradient", flag.ExitOnError)
	var (
		n       = fs.Int("n", 36, "nodes per scenario (grid topology uses the nearest WxH factorization)")
		seed    = fs.Uint64("seed", 1, "PRNG seed")
		horizon = fs.Float64("horizon", 30, "simulated seconds per scenario")
		rho     = fs.Float64("rho", 0.01, "hardware clock drift bound")
		delay   = fs.Float64("delay", 0.01, "message delay bound (seconds)")
		beacon  = fs.Float64("beacon", 0.1, "beacon interval (hardware time)")
		sample  = fs.Float64("sample", 0.1, "skew sampling period (real time)")
		workers = fs.Int("workers", 0, "parallel sweep workers (0 = GOMAXPROCS)")
		out     = fs.String("out", ".", "directory for gradient_skew.csv and gradient_report.json")
	)
	var faults sim.FaultSpec
	addFaultFlags(fs, &faults)
	fs.Parse(args)
	if *n < 4 {
		fail("gradient: -n must be at least 4")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fail("gradient: %v", err)
	}

	topologies := []struct {
		name string
		spec sim.TopologySpec
		ch   sim.ChurnSpec
	}{
		{"Line", sim.TopologySpec{Kind: sim.TopoLine}, sim.ChurnSpec{}},
		{"Ring", sim.TopologySpec{Kind: sim.TopoRing}, sim.ChurnSpec{}},
		{"Grid", sim.SquareGrid(*n), sim.ChurnSpec{}},
		{"Ring+Volatile", sim.TopologySpec{Kind: sim.TopoRing}, sim.ChurnSpec{
			Kind: sim.ChurnVolatile, Lifetime: 1.5, Absence: 1.0, ExtraEdges: *n / 2,
		}},
		{"RotatingStar", sim.TopologySpec{}, sim.ChurnSpec{
			Kind: sim.ChurnRotatingStar, Period: 2, Overlap: 0.5,
		}},
	}
	drivers := []sim.DriverSpec{
		{Kind: sim.DriveBangBang, Interval: 0.7},
		{Kind: sim.DriveRandomWalk, Interval: 0.5},
	}

	var cells []sim.SweepCell
	for _, topo := range topologies {
		for _, drv := range drivers {
			cfg := sim.Config{
				N:             *n,
				Seed:          *seed,
				Horizon:       *horizon,
				Rho:           *rho,
				MaxDelay:      *delay,
				Topology:      topo.spec,
				Driver:        drv,
				Churn:         topo.ch,
				SampleEvery:   *sample,
				CheckGradient: true,
				Faults:        faults,
			}
			cfg.Node.BeaconEvery = *beacon
			cells = append(cells, sim.SweepCell{
				Name: fmt.Sprintf("%s/%v", topo.name, drv.Kind),
				Cfg:  cfg,
			})
		}
	}
	results, err := sim.RunSweep(cells, *workers)
	if err != nil {
		fail("gradient: %v", err)
	}

	var csv strings.Builder
	csv.WriteString("scenario,topology,driver,churn,n,d,max_skew,bound,ratio\n")
	gcells := make([]gradientCell, 0, len(results))
	violations := 0

	fmt.Printf("%-28s %8s %8s %12s %12s %12s %10s\n",
		"scenario", "samples", "maxDist", "worstSkew", "worstBound", "worstRatio", "epochs")
	for _, res := range results {
		rpt := res.Report
		maxDist := 0
		if len(rpt.PerDistanceSkew) > 0 {
			maxDist = len(rpt.PerDistanceSkew) - 1
		}
		topoName := res.Cfg.Topology.Kind.String()
		if res.Cfg.Churn.Kind == sim.ChurnRotatingStar {
			// The rotating star ignores the topology spec entirely;
			// labeling it with the zero spec's kind would be wrong.
			topoName = "-"
		}
		cell := gradientCell{
			Scenario: res.Name,
			Topology: topoName,
			Driver:   res.Cfg.Driver.Kind.String(),
			Churn:    res.Cfg.Churn.Kind.String(),
			N:        *n,
			MaxDist:  maxDist,
			Samples:  rpt.Samples,
			Epochs:   rpt.DistanceRecomputes,
			MaxSkew:  rpt.MaxGlobalSkew,
			// Index 0 of the per-distance arrays is the unused
			// distance-0 slot, so JSON consumers index by d directly.
			PerDistanceSkew:  []float64{0},
			PerDistanceBound: []float64{0},
		}
		worstD := 0
		for d := 1; d <= maxDist; d++ {
			skew := rpt.PerDistanceSkew[d]
			bound := res.Cfg.GradientBound(d)
			ratio := skew / bound
			cell.PerDistanceSkew = append(cell.PerDistanceSkew, skew)
			cell.PerDistanceBound = append(cell.PerDistanceBound, bound)
			if ratio > cell.WorstRatio {
				cell.WorstRatio = ratio
				worstD = d
			}
			if skew > bound {
				cell.Violated = true
			}
			fmt.Fprintf(&csv, "%s,%s,%s,%s,%d,%d,%g,%g,%g\n",
				cell.Scenario, cell.Topology, cell.Driver, cell.Churn, *n, d, skew, bound, ratio)
		}
		if res.Cfg.Faults.Enabled() {
			// Faulted gradient runs may transiently breach per-distance
			// bounds; the gate becomes global re-convergence.
			cell.Violated = math.IsInf(rpt.ReconvergenceTime, 1)
		}
		if cell.Violated {
			violations++
		}
		gcells = append(gcells, cell)
		fmt.Printf("%-28s %8d %8d %12.6f %12.6f %12.4f %10d\n",
			cell.Scenario, cell.Samples, cell.MaxDist,
			cell.PerDistanceSkew[worstD], cell.PerDistanceBound[worstD], cell.WorstRatio, cell.Epochs)
	}

	report := struct {
		Seed        uint64         `json:"seed"`
		N           int            `json:"n"`
		Horizon     float64        `json:"horizon"`
		Rho         float64        `json:"rho"`
		MaxDelay    float64        `json:"max_delay"`
		BeaconEvery float64        `json:"beacon_every"`
		SampleEvery float64        `json:"sample_every"`
		Cells       []gradientCell `json:"cells"`
	}{*seed, *n, *horizon, *rho, *delay, *beacon, *sample, gcells}
	writeArtifacts("gradient", *out, "gradient_skew.csv", csv.String(), report, "")

	if violations > 0 {
		fail("gradient: %d scenario(s) exceeded GradientBound(d)", violations)
	}
	fmt.Println("ok: per-distance local skew within GradientBound(d) on every scenario")
}
