package main

import (
	"flag"
	"fmt"

	"gcs/internal/rt"
)

// runRealtime is the `realtime` subcommand: the default command's
// scenario, executed on the goroutine-per-node real-time runtime
// (internal/rt). One simulated second is one wall second, so the
// default horizon is short. The report and the fault gate are the
// DES's; the skew gate has slack, because a wall-clock sampler takes
// fuzzy cuts, not the DES's exact ones.
func runRealtime(args []string) {
	fs := flag.NewFlagSet("gcsim realtime", flag.ExitOnError)
	sf := addScenarioFlags(fs, 5)
	fs.Parse(args)
	cfg := sf.config()
	rpt, err := rt.Run(cfg)
	if err != nil {
		fail("%v", err)
	}
	eff := cfg.WithDefaults()
	printReport("realtime", eff, rpt)
	if faultGate(eff, rpt) {
		return
	}
	// Wall-clock sampling jitter earns a 2x slack over the DES gate.
	if rpt.MaxGlobalSkew > 2*rpt.Bound {
		fail("VIOLATION: max global skew %v exceeds 2x analytic bound %v", rpt.MaxGlobalSkew, rpt.Bound)
	}
	fmt.Println("ok: global skew within analytic bound (2x real-time slack)")
}
