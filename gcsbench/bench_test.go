package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"gcs/internal/jobd"
	"gcs/internal/sim"
)

// smallGrid is grid_serial shrunk to an 8x8 grid and one simulated
// second, for tests of the checking machinery.
func smallGrid() simWorkload {
	w := simWorkloads["grid_serial"]
	w.config = func(seed uint64) sim.Config {
		cfg := simWorkloads["grid_serial"].config(seed)
		cfg.N, cfg.Topology.W, cfg.Topology.H, cfg.Horizon = 64, 8, 8, 1
		return cfg
	}
	return w
}

func TestTamperedDigestCountsAsFailure(t *testing.T) {
	var good tally
	r := newSimRunner(smallGrid(), 5, &good)
	r.run(r.cfg, nil)
	r.run(r.cfg, nil)
	if good.attempted != 2 || good.failed != 0 {
		t.Fatalf("untampered: %d of %d runs failed: %v", good.failed, good.attempted, good.reasons)
	}

	// The default seed is checked against the recorded digest.
	w := smallGrid()
	w.digest = strings.Repeat("0", 64)
	var bad tally
	r = newSimRunner(w, defaultSeed, &bad)
	r.run(r.cfg, nil)
	if bad.attempted != 1 || bad.failed != 1 {
		t.Fatalf("tampered reference: %d of %d runs failed, want 1 of 1", bad.failed, bad.attempted)
	}
}

// TestTracedRunsMatchRecordedDigest runs each sim workload at the
// default seed untraced and traced: both reports must carry the
// recorded digest (tracing never changes an execution), and the labels
// must account for at least 90% of the traced host time.
func TestTracedRunsMatchRecordedDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full sim workloads")
	}
	for _, name := range []string{"grid_serial", "churn_sharded"} {
		t.Run(name, func(t *testing.T) {
			w := simWorkloads[name]
			var tl tally
			r := newSimRunner(w, defaultSeed, &tl)
			r.run(r.cfg, nil)
			traceCfg := r.cfg
			traceCfg.Workers = 1
			tr := newTracer()
			setHooks(r.arena, traceCfg, tr)
			r.run(traceCfg, tr)
			setHooks(r.arena, traceCfg, nil)
			if tl.failed != 0 {
				t.Fatalf("%d of %d runs failed: %v", tl.failed, tl.attempted, tl.reasons)
			}
			if c := tr.coverage(); c < 0.9 {
				t.Errorf("labels cover %.3f of traced host time, want >= 0.9", c)
			}
		})
	}
}

// TestSweepStoredShare drives the service briefly: every job must pass
// its checks, exactly one cell in three must come from the store, and
// memory must have been read at the clients' checkpoint.
func TestSweepStoredShare(t *testing.T) {
	p, err := runSweepPass(t.TempDir()+"/pass", 3, 300*time.Millisecond, true)
	if err != nil {
		t.Fatal(err)
	}
	var tl tally
	if err := verify(p.jobs, &tl); err != nil {
		t.Fatal(err)
	}
	if tl.failed != 0 || tl.attempted == 0 {
		t.Fatalf("%d of %d jobs failed: %v", tl.failed, tl.attempted, tl.reasons)
	}
	cells, cached := 0, 0
	for _, j := range p.jobs {
		cells += len(j.cells)
		cached += j.cached
	}
	if cells == 0 || 3*cached != cells {
		t.Fatalf("%d of %d cells came from the store, want one in three", cached, cells)
	}
	if p.mem <= 0 {
		t.Fatalf("mem_mb was not read (%v)", p.mem)
	}
}

func TestSweepTamperedReportFails(t *testing.T) {
	spec := jobd.SweepSpec{Ns: []int{8}, Topos: streamTopos, Drivers: streamDrivers, Churns: streamChurns, Seed: 9, Horizon: 1}
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	j := jobRecord{cells: cells}
	for _, c := range cells {
		rpt, err := sim.Run(c.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		j.reports = append(j.reports, digest(rpt))
	}
	var tl tally
	if err := verify([]jobRecord{j}, &tl); err != nil || tl.failed != 0 {
		t.Fatalf("genuine reports: failed %d, err %v", tl.failed, err)
	}
	j.reports[len(j.reports)-1] = "tampered"
	tl = tally{}
	if err := verify([]jobRecord{j}, &tl); err != nil || tl.failed != 1 {
		t.Fatalf("tampered report: failed %d of %d, err %v", tl.failed, tl.attempted, err)
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the metric catalog and the
// workload table in step with BENCHMARK.json.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	specs := func(l []struct{ Name, Unit string }) []metricSpec {
		var out []metricSpec
		for _, s := range l {
			out = append(out, metricSpec{s.Name, s.Unit})
		}
		return out
	}
	if got := specs(b.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end_to_end = %v, catalog %v", got, endToEnd)
	}
	if got := specs(b.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("per_layer = %v, catalog %v", got, perLayer)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d here", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
}
