package main

import "fmt"

// metricDef is one metric of BENCHMARK.json; the self-test keeps the two in
// step.
type metricDef struct{ name, unit string }

// endToEnd metrics are measured with tracing off. Every workload reports
// each of them, so each is defined for all four workloads (see README.md).
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"setup_s", "s"},
	{"live_heap_mb", "MB"},
}

// simSpecNames name the sim-fig9b specs in per-spec metrics.
var simSpecNames = []string{"ll_base", "ll_opt", "bst_base", "bst_opt", "bpt_base", "bpt_opt"}

// perLayer metrics come from the --trace 1 run. A workload that does not
// cross a layer reports 0 for it.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"potserve.rtt_ns_per_op", "ns"},
		{"potserve.self_ns_per_op", "ns"},
		{"potserve.buf_grows", "count"},
		{"runtime.allocs_per_op", "count"},
		{"runtime.gc_cycles", "count"},
		{"objstore.get_ns_p50", "ns"},
		{"objstore.get_ns_p99", "ns"},
		{"objstore.scan_ns_p50", "ns"},
		{"objstore.put_ns_p50", "ns"},
		{"objstore.put_ns_p99", "ns"},
		{"objstore.del_ns_p50", "ns"},
		{"objstore.snapshot_fallbacks", "count"},
		{"objstore.snapshot_read_frac", "ratio"},
		{"pmem.tx_commits_per_write", "count"},
		{"pmem.undo_records_per_write", "count"},
		{"pmem.undo_bytes_per_write", "B"},
		{"pmem.persists_per_write", "count"},
		{"pmem.allocs_per_write", "count"},
		{"pmem.frees_per_write", "count"},
		{"pmem.tx_aborts", "count"},
		{"pmem.group_commit_batch", "count"},
		{"pmem.mvcc_publishes_per_write", "count"},
		{"pmem.mvcc_live_versions", "count"},
		{"pmem.mvcc_max_chain", "count"},
		{"nvmsim.events_per_write", "count"},
		{"cluster.write_exec_ns_p50", "ns"},
		{"cluster.rep_apply_ns_per_entry", "ns"},
		{"cluster.rep_frames_per_write", "count"},
		{"cluster.rep_entries_per_frame", "count"},
		{"cluster.commits_per_write", "count"},
		{"cluster.persists_per_write", "count"},
		{"cluster.redirects", "count"},
		{"sim.produce_ns_per_insn", "ns"},
		{"sim.model_ns_per_insn", "ns"},
		{"sim.allocs_per_insn", "count"},
		{"sim.insns", "count"},
		{"sim.cycles", "count"},
		{"sim.polb_misses", "count"},
		{"sim.pot_walks", "count"},
		{"sim_mips", "MIPS"},
	}
	for _, s := range simSpecNames {
		defs = append(defs,
			metricDef{"sim." + s + ".produce_ns_per_insn", "ns"},
			metricDef{"sim." + s + ".model_ns_per_insn", "ns"})
	}
	return append(defs,
		metricDef{"get_p50_us", "us"},
		metricDef{"get_p99_us", "us"},
		metricDef{"put_p50_us", "us"},
		metricDef{"put_p99_us", "us"},
		metricDef{"scan_p50_us", "us"},
		metricDef{"scan_p99_us", "us"},
		metricDef{"failed_frac", "ratio"},
		metricDef{"bench.gen_late_p99_us", "us"},
		metricDef{"bench.trace_overhead_frac", "ratio"},
		metricDef{"bench.span_coverage", "ratio"},
	)
}()

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line the command prints.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result is what a workload run measured.
type result struct {
	attempted, failed int
	firstErr          error
	values            map[string]float64
}

func (r *result) set(name string, v float64) {
	if r.values == nil {
		r.values = map[string]float64{}
	}
	r.values[name] = v
}

func (r *result) count(attempted, failed int, err error) {
	r.attempted += attempted
	r.failed += failed
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// report renders the run: with trace off every end-to-end metric, which
// must all have been measured; with trace on every per-layer metric, 0
// where the workload does not cross the layer.
func (r *result) report(trace bool) (report, error) {
	out := report{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	defs := endToEnd
	if trace {
		defs = perLayer
		r.set("failed_frac", ratio(float64(r.failed), float64(r.attempted)))
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && !trace {
			return out, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, nil
}
