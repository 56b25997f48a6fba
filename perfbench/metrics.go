package main

// metricDef names one reported metric. The lists below name every
// metric the benchmark reports and match BENCHMARK.json at the
// repository root (TestMetricTablesMatchBenchmarkJSON keeps the two in
// step).
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// notApplicable is the value of a quality-of-results count on a
// workload that produces no such result (the portal workloads route
// no nets and map no gates). Every metric must be reported on every
// workload and no metric may read 0, so these read 1.
const notApplicable = 1.0

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"error_ratio", "ratio", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"flow_s_per_design", "s", "lower"},
	{"wirelength", "count", "lower"},
	{"vias", "count", "lower"},
	{"route_completion", "ratio", "higher"},
	{"literals_after", "count", "lower"},
	{"area", "count", "lower"},
	{"critical_delay", "count", "lower"},
	{"job_ms_p50", "ms", "lower"},
	{"job_ms_p99", "ms", "lower"},
	{"capacity_jps", "1/s", "higher"},
	{"recover_ms", "ms", "lower"},
}

// Per-layer metrics, grouped by the module they measure. Times of the
// flow layers are per design, counts are sums over the design set;
// the tool-engine times are means per call.
var perLayer = []metricDef{
	// vlsicad: flow.go's public Flow.Stages table.
	{"vlsicad.synth_s", "s", "lower"},
	{"vlsicad.verify_s", "s", "lower"},
	{"vlsicad.map_s", "s", "lower"},
	{"vlsicad.place_s", "s", "lower"},
	{"vlsicad.route_s", "s", "lower"},
	{"vlsicad.timing_s", "s", "lower"},
	{"vlsicad.cpu_util", "ratio", "higher"},
	// route: replayed route.RouteAll.
	{"route.route_all_s", "s", "lower"},
	{"route.cells_expanded", "count", "lower"},
	{"route.ns_per_expansion", "ns", "lower"},
	{"route.waves", "count", "lower"},
	{"route.wave_conflicts", "count", "lower"},
	{"route.speculative_searches", "count", "lower"},
	{"route.failed_nets", "count", "lower"},
	{"route.useful_search_ratio", "ratio", "higher"},
	// mls: replayed synthesis calls and the sis tool.
	{"mls.extract_s", "s", "lower"},
	{"mls.simplify_s", "s", "lower"},
	{"mls.literals_removed", "count", "higher"},
	{"mls.sis_ms", "ms", "lower"},
	// netlist, techmap, place.
	{"netlist.equiv_s", "s", "lower"},
	{"techmap.map_s", "s", "lower"},
	{"techmap.gates", "count", "lower"},
	{"place.quadratic_s", "s", "lower"},
	{"place.cg_iterations", "count", "lower"},
	{"place.legalize_s", "s", "lower"},
	{"place.hpwl", "count", "lower"},
	// portal: the pool, its journal and recovery.
	{"portal.submit_us_p50", "us", "lower"},
	{"portal.submit_us_p99", "us", "lower"},
	{"portal.queue_wait_ms_p50", "ms", "lower"},
	{"portal.queue_wait_ms_p99", "ms", "lower"},
	{"portal.service_ms_p50", "ms", "lower"},
	{"portal.overhead_ms", "ms", "lower"},
	{"portal.timeouts", "count", "lower"},
	{"portal.abandoned", "count", "lower"},
	{"portal.journal_bytes_per_job", "B", "lower"},
	{"portal.journal_syncs_per_job", "count", "lower"},
	{"portal.recover_records", "count", "lower"},
	// Tool engines, replayed on the run's own inputs.
	{"bdd.kbdd_ms", "ms", "lower"},
	{"espresso.minimize_ms", "ms", "lower"},
	{"espresso.iterations", "count", "lower"},
	{"sat.solve_ms", "ms", "lower"},
	{"sat.conflicts", "count", "lower"},
	{"linsolve.cg_ms", "ms", "lower"},
	{"linsolve.cg_iterations", "count", "lower"},
	// Go runtime and the benchmark's load generator.
	{"runtime.alloc_mb_per_op", "MB", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"loadgen.lag_ms_p99", "ms", "lower"},
	{"loadgen.sent", "count", "higher"},
	// Self time of each layer's spans over the traced pass.
	{"self_s.vlsicad", "s", "lower"},
	{"self_s.mls", "s", "lower"},
	{"self_s.netlist", "s", "lower"},
	{"self_s.techmap", "s", "lower"},
	{"self_s.place", "s", "lower"},
	{"self_s.route", "s", "lower"},
	{"self_s.portal", "s", "lower"},
	{"self_s.bdd", "s", "lower"},
	{"self_s.espresso", "s", "lower"},
	{"self_s.sat", "s", "lower"},
	{"self_s.linsolve", "s", "lower"},
	{"self_s.bench", "s", "lower"},
	// Tracing itself.
	{"trace.overhead_pct", "%", "lower"},
	{"trace.spans", "count", "lower"},
}

// zeroLayers returns every per-layer metric set to 0, the value of a
// layer the workload does not exercise; workloads overwrite the layers
// they measure.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}
