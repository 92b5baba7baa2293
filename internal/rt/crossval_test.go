//go:build goexperiment.synctest

package rt

import (
	"math"
	"testing"

	"gcs/internal/sim"
)

// TestCrossHarnessValidation is the acceptance gate for the real-time
// runtime: the same scenario configs run through both harnesses — the
// discrete-event simulation and the goroutine-per-node real-time
// runtime — and both executions must satisfy the same analytic
// guarantees (GlobalSkewBound, GradientBound(1), drift-band containment,
// fault re-convergence). The harnesses schedule differently, so reports
// are not compared field by field; the paper's bounds are the common
// contract both must honor.
func TestCrossHarnessValidation(t *testing.T) {
	scenarios := []struct {
		name    string
		cfg     sim.Config
		faulted bool
	}{
		{
			name: "Ring16BangBang",
			cfg: sim.Config{
				N: 16, Seed: 41, Horizon: 10, Rho: 0.01, MaxDelay: 0.01,
				Topology: sim.TopologySpec{Kind: sim.TopoRing},
				Driver:   sim.DriverSpec{Kind: sim.DriveBangBang, Interval: 1},
			},
		},
		{
			name: "Grid4x4RandomWalk",
			cfg: sim.Config{
				N: 16, Seed: 42, Horizon: 10, Rho: 0.02, MaxDelay: 0.02,
				Topology: sim.TopologySpec{Kind: sim.TopoGrid, W: 4, H: 4},
				Driver:   sim.DriverSpec{Kind: sim.DriveRandomWalk, Interval: 1},
			},
		},
		{
			name: "RotatingStar12",
			cfg: sim.Config{
				N: 12, Seed: 43, Horizon: 8, Rho: 0.01, MaxDelay: 0.01,
				Churn: sim.ChurnSpec{Kind: sim.ChurnRotatingStar, Period: 1, Overlap: 0.25},
			},
		},
		{
			name: "FaultedRing12",
			cfg: sim.Config{
				N: 12, Seed: 44, Horizon: 12, Rho: 0.01, MaxDelay: 0.01,
				Topology: sim.TopologySpec{Kind: sim.TopoRing},
				Driver:   sim.DriverSpec{Kind: sim.DriveBangBang, Interval: 1},
				Faults:   sim.FaultSpec{Drop: 0.05, CrashEvery: 4, CrashDowntime: 0.5},
			},
			faulted: true,
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			desRep, err := sim.Run(sc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			rtRep := runBubble(t, sc.cfg)

			for _, h := range []struct {
				name string
				rep  sim.SkewReport
			}{{"des", desRep}, {"rt", rtRep}} {
				if h.rep.TotalBeacons == 0 || h.rep.Transport.Delivered == 0 {
					t.Fatalf("%s: degenerate execution: %+v", h.name, h.rep)
				}
				if sc.faulted {
					// Faults may push the skew past the bound mid-run; the
					// contract is graceful degradation: finite re-convergence.
					if h.rep.Faults.Total() == 0 {
						t.Errorf("%s: fault plan injected nothing", h.name)
					}
					if math.IsInf(h.rep.ReconvergenceTime, 1) {
						t.Errorf("%s: never re-converged (final skew %v, bound %v)",
							h.name, h.rep.FinalGlobalSkew, h.rep.Bound)
					}
					continue
				}
				if h.rep.MaxGlobalSkew > h.rep.Bound {
					t.Errorf("%s: global skew %v above bound %v", h.name, h.rep.MaxGlobalSkew, h.rep.Bound)
				}
				if g1 := sc.cfg.GradientBound(1); h.rep.MaxAdjacentSkew > g1 {
					t.Errorf("%s: adjacent skew %v above gradient bound %v", h.name, h.rep.MaxAdjacentSkew, g1)
				}
				if h.rep.MinRateSeen < 1-sc.cfg.Rho-1e-12 || h.rep.MaxRateSeen > 1+sc.cfg.Rho+1e-12 {
					t.Errorf("%s: rates [%v, %v] escaped the drift band", h.name, h.rep.MinRateSeen, h.rep.MaxRateSeen)
				}
			}

			// Emit the comparison table (visible under -v; the PAPER.md
			// cross-validation table is refreshed from this output).
			t.Logf("des: maxSkew=%.4f adjSkew=%.4f bound=%.3f delivered=%d reconv=%.2f",
				desRep.MaxGlobalSkew, desRep.MaxAdjacentSkew, desRep.Bound,
				desRep.Transport.Delivered, desRep.ReconvergenceTime)
			t.Logf("rt:  maxSkew=%.4f adjSkew=%.4f bound=%.3f delivered=%d reconv=%.2f",
				rtRep.MaxGlobalSkew, rtRep.MaxAdjacentSkew, rtRep.Bound,
				rtRep.Transport.Delivered, rtRep.ReconvergenceTime)

			// The two harnesses implement the same physics, so coarse
			// magnitudes must agree: skews within a small factor of each
			// other (they share the algorithm, parameters, and time span).
			if desRep.MaxGlobalSkew > 0 && rtRep.MaxGlobalSkew > 0 {
				ratio := rtRep.MaxGlobalSkew / desRep.MaxGlobalSkew
				if ratio < 0.1 || ratio > 10 {
					t.Errorf("harness skews disagree by %vx: des %v, rt %v",
						ratio, desRep.MaxGlobalSkew, rtRep.MaxGlobalSkew)
				}
			}
		})
	}
}

// TestScheduleParity pins that rt runs the DES's rate drivers and fault
// schedules draw for draw: the same config through sim.Run and rt.Run
// must crash, recover and excurse the same number of times and visit
// the same extreme hardware rates. Only the fault times may differ, by
// the nanosecond rounding of rt's wall timers.
func TestScheduleParity(t *testing.T) {
	drivers := []sim.DriverSpec{
		{Kind: sim.DriveConstant},
		{Kind: sim.DriveBangBang},
		{Kind: sim.DriveRandomWalk, Interval: 0.7},
	}
	for seed := uint64(1); seed <= 12; seed++ {
		for _, drv := range drivers {
			cfg := sim.Config{
				N: 10, Seed: seed, Horizon: 12,
				Topology: sim.TopologySpec{Kind: sim.TopoRing},
				Driver:   drv,
			}
			if seed%2 == 0 {
				cfg.Faults = sim.FaultSpec{CrashEvery: 3, CrashDowntime: 0.5, RateExcursionEvery: 2}
			}
			desRep, err := sim.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rtRep := runBubble(t, cfg)
			d, r := desRep.Faults, rtRep.Faults
			if d.Crashes != r.Crashes || d.Recoveries != r.Recoveries || d.RateExcursions != r.RateExcursions {
				t.Errorf("seed %d %v: fault counts differ: des %+v, rt %+v", seed, drv.Kind, d, r)
			}
			if math.Abs(d.LastFaultT-r.LastFaultT) > 1e-6 {
				t.Errorf("seed %d %v: last fault at des %v, rt %v", seed, drv.Kind, d.LastFaultT, r.LastFaultT)
			}
			if desRep.MinRateSeen != rtRep.MinRateSeen || desRep.MaxRateSeen != rtRep.MaxRateSeen {
				t.Errorf("seed %d %v: rates seen des [%v, %v], rt [%v, %v]", seed, drv.Kind,
					desRep.MinRateSeen, desRep.MaxRateSeen, rtRep.MinRateSeen, rtRep.MaxRateSeen)
			}
			if seed%2 == 0 && d.Crashes == 0 {
				t.Errorf("seed %d %v: faulted config injected no crash", seed, drv.Kind)
			}
		}
	}
}
