package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"

	"gcs/internal/sim"
)

// printReport prints one run's report, headed by the harness name. eff
// is the effective configuration: WithDefaults treats zero-valued
// fields (e.g. -rho 0) as unset and fills them in.
func printReport(harness string, eff sim.Config, rpt sim.SkewReport) {
	fmt.Printf("%s: n=%d topo=%v driver=%v churn=%v horizon=%gs rho=%g maxDelay=%g seed=%d\n",
		harness, eff.N, eff.Topology.Kind, eff.Driver.Kind, eff.Churn.Kind, eff.Horizon, eff.Rho, eff.MaxDelay, eff.Seed)
	if eff.Parallel {
		w := eff.Workers
		if w <= 0 {
			w = runtime.GOMAXPROCS(0)
		}
		fmt.Printf("parallel: shards=%d minDelay=%g (workers=%d — execution only, never in the report)\n",
			eff.Shards, eff.MinDelay, w)
	}
	fmt.Printf("skew:     maxGlobal=%.6f  maxAdjacent=%.6f  final=%.6f  bound=%.6f\n",
		rpt.MaxGlobalSkew, rpt.MaxAdjacentSkew, rpt.FinalGlobalSkew, rpt.Bound)
	fmt.Printf("traffic:  sent=%d delivered=%d dropped=%d refused=%d\n",
		rpt.Transport.Sent, rpt.Transport.Delivered, rpt.Transport.Dropped, rpt.Transport.Refused)
	fmt.Printf("activity: events=%d beacons=%d jumps=%d edgeAdds=%d edgeRemoves=%d samples=%d\n",
		rpt.EventsExecuted, rpt.TotalBeacons, rpt.TotalJumps, rpt.EdgeAdds, rpt.EdgeRemoves, rpt.Samples)
	fmt.Printf("drift:    ratesSeen=[%.6f, %.6f] allowed=[%.6f, %.6f]\n",
		rpt.MinRateSeen, rpt.MaxRateSeen, 1-eff.Rho, 1+eff.Rho)
	if eff.Faults.Enabled() {
		fst := rpt.Faults
		fmt.Printf("faults:   drops=%d dups=%d spikes=%d crashes=%d recoveries=%d rateExcursions=%d lastFault=%.3f\n",
			fst.Drops, fst.Dups, fst.DelaySpikes, fst.Crashes, fst.Recoveries, fst.RateExcursions, fst.LastFaultT)
		if math.IsInf(rpt.ReconvergenceTime, 1) {
			fmt.Println("reconverge: NEVER — global skew still outside the bound at the horizon")
		} else {
			fmt.Printf("reconverge: %.6fs after the last fault\n", rpt.ReconvergenceTime)
		}
	}
}

// faultGate judges a faulted run, which may breach the bound while
// faults fire: it passes only if the skew re-converged inside the bound
// after the last fault. It reports whether the run was faulted; an
// unfaulted run is left to the caller's skew gate.
func faultGate(eff sim.Config, rpt sim.SkewReport) bool {
	if !eff.Faults.Enabled() {
		return false
	}
	if math.IsInf(rpt.ReconvergenceTime, 1) {
		fail("NO RECONVERGENCE: global skew never re-entered the analytic bound after the last fault")
	}
	fmt.Println("ok: re-converged inside the analytic bound after the last fault")
	return true
}

// writeArtifacts writes a subcommand's two artifacts into dir, csv as
// csvName and report, indented, as <cmd>_report.json, then prints both
// paths followed by note. Any error fails the command.
func writeArtifacts(cmd, dir, csvName, csv string, report any, note string) {
	csvPath := filepath.Join(dir, csvName)
	if err := os.WriteFile(csvPath, []byte(csv), 0o644); err != nil {
		fail("%s: %v", cmd, err)
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fail("%s: %v", cmd, err)
	}
	jsonPath := filepath.Join(dir, cmd+"_report.json")
	if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
		fail("%s: %v", cmd, err)
	}
	fmt.Printf("wrote %s and %s%s\n", csvPath, jsonPath, note)
}
