// Command gcsbench is the repository benchmark: it runs one workload
// for a fixed wall-clock budget, checks every operation's output, and
// prints one JSON result line. See README.md for the workloads, the
// metric definitions and the event-label to layer map.
//
//	bash gcsbench/run.sh --workload grid_serial --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with every trace hook removed; with --trace 1 it carries the
// per-layer metrics of a separate, instrumented pass.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// defaultSeed is the seed whose report digests are recorded in
// workloads.go; any other seed is checked against its own first run.
const defaultSeed = 1

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects one run's named values.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// result is the benchmark's last output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// tally counts checked operations and keeps the first few failure
// reasons for the log.
type tally struct {
	attempted, failed int
	reasons           []string
}

func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if ok {
		return
	}
	t.failed++
	if len(t.reasons) < 10 {
		t.reasons = append(t.reasons, fmt.Sprintf(format, args...))
	}
}

// workloads maps each --workload name to its runner.
var workloads = map[string]func(options, metrics, *tally) error{
	"grid_serial":   func(o options, m metrics, t *tally) error { return runSim(simWorkloads["grid_serial"], o, m, t) },
	"churn_sharded": func(o options, m metrics, t *tally) error { return runSim(simWorkloads["churn_sharded"], o, m, t) },
	"sweep_service": runSweep,
}

// options are the parsed command-line arguments.
type options struct {
	workload string
	seed     uint64
	budget   time.Duration
	trace    bool
	commit   string
}

func main() {
	var o options
	var seconds, trace int
	flag.StringVar(&o.workload, "workload", "", "workload: grid_serial, churn_sharded or sweep_service")
	flag.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed; the same seed gives the same inputs")
	flag.IntVar(&seconds, "seconds", 25, "wall-clock seconds to measure for")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced pass")
	flag.StringVar(&o.commit, "commit", "unknown", "commit the program was built from, for the host record")
	flag.Parse()
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "gcsbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	o.budget = time.Duration(seconds) * time.Second
	o.trace = trace == 1

	run, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "gcsbench: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	host, err := hostRecord(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gcsbench: %v\n", err)
		os.Exit(1)
	}
	hostJSON, err := json.Marshal(host)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gcsbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("host %s\n", hostJSON)

	m := metrics{}
	var t tally
	if err := run(o, m, &t); err != nil {
		fmt.Fprintf(os.Stderr, "gcsbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	catalog := endToEnd
	if o.trace {
		catalog = perLayer
	}
	if err := complete(m, catalog); err != nil {
		fmt.Fprintf(os.Stderr, "gcsbench: %v\n", err)
		os.Exit(1)
	}
	for _, r := range t.reasons {
		fmt.Fprintf(os.Stderr, "gcsbench: failed: %s\n", r)
	}
	out, err := json.Marshal(result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m})
	if err != nil {
		fmt.Fprintf(os.Stderr, "gcsbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
