package main

import (
	"encoding/json"
	"io"
)

// Metric is one named, unit-carrying number the benchmark reports.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// Workload is one seeded input set the benchmark can run.
type Workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Spec is the BENCHMARK.json document. The Go tables below are its single
// source of truth: `perfbench -write-spec` regenerates the file and the
// package test fails when the committed copy drifts.
type Spec struct {
	Command    []string   `json:"command"`
	Paths      []string   `json:"paths"`
	RunSeconds int        `json:"run_seconds"`
	Workloads  []Workload `json:"workloads"`
	EndToEnd   []Metric   `json:"end_to_end"`
	PerLayer   []Metric   `json:"per_layer"`
}

const runSeconds = 20

var workloads = []Workload{
	{"pool-1rhs", "latency path: per-task overhead in trsv/runtime (clock reads, messaging, waits) dominates and GEMM is a minority"},
	{"pool-16rhs", "kernel-bound: sparse GEMM does most of the work and per-task overhead is amortised 16x, so kernel changes show here"},
	{"des-fig4", "the paper's modeled quantities: simulator engine and trsv state machines at 16-64 modeled ranks, no pool or server"},
	{"service-mixed", "the only workload running the server (decode, admission, coalescer, encode) with uploads on the request path"},
}

// endToEnd lists the metrics every workload emits on an untraced run. The
// latency and throughput metrics name the workload's own unit of work: a
// Solve call (pool-*), one simulated solve (des-fig4), or one HTTP solve
// request (service-mixed). See README.md for the mapping.
var endToEnd = []Metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "retained_heap_mb", Unit: "MB", Better: "lower", Bound: 0.1},
}

// perLayer lists the metrics every workload emits on a traced run; a layer
// the workload does not exercise reports 0.
var perLayer = []Metric{
	// sparse: the dense kernels.
	{Name: "sparse.gemm_flops_per_solve", Unit: "flop", Better: "lower"},
	{Name: "sparse.gemm_bytes_per_solve", Unit: "B", Better: "lower"},
	{Name: "sparse.gemm_ns_per_solve", Unit: "ns", Better: "lower"},
	{Name: "sparse.gemm_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "sparse.gemm_rank_ms", Unit: "ms", Better: "lower"},
	// snode, core: serial reference and the solver entry point.
	{Name: "snode.serial_ms", Unit: "ms", Better: "lower"},
	{Name: "core.pool_over_serial", Unit: "ratio", Better: "lower"},
	{Name: "core.allocs_per_solve", Unit: "count", Better: "lower"},
	{Name: "core.alloc_bytes_per_solve", Unit: "B", Better: "lower"},
	{Name: "core.gc_cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "core.unattributed_ms", Unit: "ms", Better: "lower"},
	// trsv: the per-rank state machines.
	{Name: "trsv.block_ops_per_solve", Unit: "count", Better: "lower"},
	{Name: "trsv.tasks_per_solve", Unit: "count", Better: "lower"},
	{Name: "trsv.ns_per_task", Unit: "ns", Better: "lower"},
	{Name: "trsv.self_ms", Unit: "ms", Better: "lower"},
	// runtime: messaging, waits, the simulator.
	{Name: "runtime.msgs_per_solve", Unit: "count", Better: "lower"},
	{Name: "runtime.bytes_per_solve", Unit: "B", Better: "lower"},
	{Name: "runtime.waits_per_solve", Unit: "count", Better: "lower"},
	{Name: "runtime.wait_ms_per_solve", Unit: "ms", Better: "lower"},
	{Name: "runtime.critpath_share", Unit: "ratio", Better: "higher"},
	{Name: "runtime.sim_us_per_msg", Unit: "us", Better: "lower"},
	{Name: "runtime.modeled_s", Unit: "s", Better: "lower"},
	{Name: "runtime.modeled_msgs", Unit: "count", Better: "lower"},
	{Name: "runtime.modeled_bytes", Unit: "B", Better: "lower"},
	// order, symbolic, factor, snode, dist, sched: set-up stages.
	{Name: "order.nd_ms", Unit: "ms", Better: "lower"},
	{Name: "symbolic.analyze_ms", Unit: "ms", Better: "lower"},
	{Name: "factor.numeric_ms", Unit: "ms", Better: "lower"},
	{Name: "snode.build_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.plan_ms", Unit: "ms", Better: "lower"},
	{Name: "sched.schedule_ms", Unit: "ms", Better: "lower"},
	{Name: "factor.fill_nnz", Unit: "count", Better: "lower"},
	{Name: "sched.tasks", Unit: "count", Better: "lower"},
	{Name: "sched.levels", Unit: "count", Better: "lower"},
	// server: request stages read back from /debug/requests/{id}.
	{Name: "server.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "server.queue_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "server.batch_assembly_ms", Unit: "ms", Better: "lower"},
	{Name: "server.solve_ms", Unit: "ms", Better: "lower"},
	{Name: "server.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "server.transport_ms", Unit: "ms", Better: "lower"},
	{Name: "server.batch_width", Unit: "count", Better: "higher"},
	{Name: "server.shed", Unit: "count", Better: "lower"},
	{Name: "server.upload_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.upload_op_share", Unit: "ratio", Better: "lower"},
	{Name: "server.upload_time_share", Unit: "ratio", Better: "lower"},
	// bench: the benchmark's own accounting.
	{Name: "bench.p99_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.traced_solve_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "bench.error_rate", Unit: "ratio", Better: "lower"},
}

func spec() Spec {
	return Spec{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}

// writeSpec writes BENCHMARK.json: two-space indent, trailing newline.
func writeSpec(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(spec())
}

// unitOf returns the unit of a named metric ("" when unknown).
func unitOf(name string) string {
	for _, ms := range [][]Metric{endToEnd, perLayer} {
		for _, m := range ms {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}
