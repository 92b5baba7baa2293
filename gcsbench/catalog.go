package main

import "fmt"

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd and perLayer are every metric the benchmark reports, in the
// order of BENCHMARK.json (a test keeps the two in step). Every
// workload reports every metric; a per-layer metric of a layer the
// workload never runs reads 0.
var endToEnd = []metricSpec{
	{"run_s", "s"},
	{"events_per_s", "1/s"},
	{"cells_per_s", "1/s"},
	{"job_p50_s", "s"},
	{"job_p90_s", "s"},
	{"setup_s", "s"},
	{"mem_mb", "MB"},
}

var perLayer = []metricSpec{
	{"des.events", "count"},
	{"des.pending_mean", "count"},
	{"des.hold_ns", "ns"},
	{"des.windows", "count"},
	{"des.events_per_window", "count"},
	{"clock.timer_ns", "ns"},
	{"transport.deliver_ns", "ns"},
	{"transport.sent", "count"},
	{"transport.delivered", "count"},
	{"transport.dropped", "count"},
	{"gcs.beacon_ns", "ns"},
	{"gcs.jumps", "count"},
	{"sim.sample_ns", "ns"},
	{"sim.gradient_recomputes", "count"},
	{"sim.allocs_per_run", "count"},
	{"sim.bytes_per_run", "B"},
	{"psim.deliver_ns", "ns"},
	{"psim.speedup", "x"},
	{"psim.coord_frac", "ratio"},
	{"dyngraph.churn_ns", "ns"},
	{"dyngraph.edge_adds", "count"},
	{"dyngraph.edge_removes", "count"},
	{"fault.injected", "count"},
	{"fault.event_ns", "ns"},
	{"store.put_cell_ms_p50", "ms"},
	{"store.put_cell_ms_p99", "ms"},
	{"store.get_cell_us", "us"},
	{"store.hit_ratio", "ratio"},
	{"store.open_s", "s"},
	{"jobd.cell_run_ms_p50", "ms"},
	{"jobd.cell_run_ms_p90", "ms"},
	{"jobd.cells_run", "count"},
	{"jobd.cells_cached", "count"},
	{"jobd.sim_share", "ratio"},
	{"jobd.submit_ms", "ms"},
	{"jobd.results_ms", "ms"},
	{"jobd.rejected", "count"},
	{"jobd.poll_share", "ratio"},
	{"transport.time_frac", "ratio"},
	{"gcs.time_frac", "ratio"},
	{"clock.time_frac", "ratio"},
	{"sim.time_frac", "ratio"},
	{"dyngraph.time_frac", "ratio"},
	{"fault.time_frac", "ratio"},
	{"trace.coverage_frac", "ratio"},
	{"trace_overhead_frac", "ratio"},
}

// complete checks that m holds only catalog metrics with their catalog
// units, and reports each catalog metric m lacks as 0.
func complete(m metrics, catalog []metricSpec) error {
	units := map[string]string{}
	for _, s := range catalog {
		units[s.name] = s.unit
	}
	for name, v := range m {
		if u, ok := units[name]; !ok || u != v.Unit {
			return fmt.Errorf("metric %s (%s) is not in the catalog", name, v.Unit)
		}
	}
	for _, s := range catalog {
		if _, ok := m[s.name]; !ok {
			m.set(s.name, s.unit, 0)
		}
	}
	return nil
}
