package main

// layerDef is one per-layer metric and the prediction it carries: the
// end-to-end figure it should move (in the vocabulary of the run
// record's workload_figures), the workload it moves it on, and where
// it is predicted flat. BENCHMARK.json's per_layer list mirrors this
// table (layertable_test.go checks it).
type layerDef struct {
	name, unit, better string
	moves, on, flat    string
}

// layerTable lists every per-layer metric a --trace 1 run reports.
// Metrics a workload does not exercise read 0 on it.
var layerTable = []layerDef{
	// core: Suite, the probes and the sweep fan-out.
	{"core.probe.cache-size_s", "s", "lower", "characterize_s", "characterize", "registry, tune"},
	{"core.probe.shared-caches_s", "s", "lower", "characterize_s", "characterize", "registry, tune"},
	{"core.probe.memory-overhead_s", "s", "lower", "characterize_s", "characterize", "registry, tune"},
	{"core.probe.communication-costs_s", "s", "lower", "characterize_s", "characterize", "registry, tune"},
	{"core.detect.exact_ratio", "ratio", "higher", "none (accuracy of quick detection vs the model)", "characterize", "-"},
	{"core.sweep.measurements", "count", "higher", "none (guards against doing less work)", "characterize", "-"},
	{"core.sweep.us_per_measurement", "us", "lower", "characterize_s", "characterize", "registry"},
	{"core.sweep.shared.imbalance", "ratio", "lower", "characterize_s", "characterize", "tune"},
	{"core.sweep.mcal.imbalance", "ratio", "lower", "characterize_s", "characterize", "tune"},
	// sched
	{"sched.parallel_efficiency", "ratio", "higher", "characterize_s", "characterize", "registry"},
	{"sched.idle_s", "s", "lower", "characterize_s", "characterize", "registry"},
	// memsys
	{"memsys.instance.fresh", "count", "lower", "alloc_mb_per_op", "characterize, tune", "registry"},
	{"memsys.instance.reset", "count", "lower", "alloc_mb_per_op", "characterize, tune", "registry"},
	{"memsys.access_hit_ns", "ns", "lower", "characterize_s, tune_s", "characterize, tune", "registry"},
	{"memsys.access_miss_ns", "ns", "lower", "characterize_s, tune_s", "characterize, tune", "registry"},
	{"memsys.reset_us", "us", "lower", "characterize_s, tune_s", "characterize, tune", "registry"},
	// mpisim (with netsim/sim underneath)
	{"mpisim.bcast_us", "us", "lower", "tune_s", "tune", "characterize"},
	// tune: engine, strategies, objectives
	{"tune.evaluations", "count", "higher", "none (guards against doing less work)", "tune", "-"},
	{"tune.scratch.fresh", "count", "lower", "none (guard)", "tune", "-"},
	{"tune.eval_us.tiled-kernel", "us", "lower", "tune_s", "tune", "registry"},
	{"tune.eval_us.bcast-sim", "us", "lower", "tune_s", "tune", "registry"},
	{"tune.eval_us.model", "us", "lower", "tune_s", "tune", "registry"},
	{"tune.engine_overhead_s", "s", "lower", "tune_s, tune_req_p50_ms", "tune, registry", "characterize"},
	// server: handlers, flight groups, MemStore
	{"server.handler_us.get", "us", "lower", "get_p50_ms, req_per_s", "registry", "characterize, tune"},
	{"server.handler_us.section", "us", "lower", "section_p50_ms, req_per_s", "registry", "characterize, tune"},
	{"server.handler_us.put", "us", "lower", "put_p50_ms, req_per_s", "registry", "characterize, tune"},
	{"server.handler_us.run", "us", "lower", "run_p50_ms, req_per_s", "registry", "characterize, tune"},
	{"server.handler_us.tune", "us", "lower", "tune_req_p50_ms, req_per_s", "registry", "characterize, tune"},
	{"server.transport_share", "ratio", "lower", "get_p50_ms", "registry", "-"},
	{"server.store.get_us", "us", "lower", "get_p50_ms, run_p50_ms", "registry", "characterize"},
	{"server.store.put_us", "us", "lower", "put_p50_ms, run_p50_ms", "registry", "characterize"},
	{"server.coalesced_ratio", "ratio", "higher", "run_p50_ms", "registry", "-"},
	{"server.store_hit_ratio", "ratio", "higher", "run_p50_ms", "registry", "-"},
	{"server.probes_executed", "count", "lower", "run_p50_ms", "registry", "-"},
	// report: Clone and the JSON schema
	{"report.bytes", "bytes", "lower", "get_p50_ms, put_p50_ms, boot_p50_ms", "registry", "characterize"},
	{"report.clone_us", "us", "lower", "get_p50_ms, put_p50_ms, boot_p50_ms", "registry", "characterize"},
	{"report.marshal_us", "us", "lower", "get_p50_ms, put_p50_ms, boot_p50_ms", "registry", "characterize"},
	{"report.unmarshal_us", "us", "lower", "get_p50_ms, put_p50_ms, boot_p50_ms", "registry", "characterize"},
	// servet: Session and the caches
	{"servet.session.warm_run_us", "us", "lower", "run_p50_ms, boot_p50_ms", "registry", "characterize"},
	{"servet.remotecache.lookup_us", "us", "lower", "boot_p50_ms", "registry", "characterize"},
	{"servet.remotecache.store_us", "us", "lower", "boot_p50_ms", "registry", "characterize"},
	{"servet.session.probes_restored_ratio", "ratio", "higher", "none (registry reads 1, characterize 0)", "registry, characterize", "-"},
	// Go runtime, over the untraced timed part
	{"runtime.gc_cycles_per_op", "count", "lower", "alloc_mb_per_op, get_p99_ms", "registry, characterize", "-"},
	{"runtime.gc_pause_ms", "ms", "lower", "get_p99_ms", "registry, characterize", "-"},
	// obs: the cost of tracing itself
	{"obs.overhead_ratio", "ratio", "lower", "none (cost of tracing)", "characterize, tune", "-"},
	// load generator of the registry workload
	{"loadgen.new_conns", "count", "lower", "none (must read 2)", "registry", "-"},
	{"loadgen.get_p50_ms", "ms", "lower", "req_per_s", "registry", "-"},
	{"loadgen.get_p99_ms", "ms", "lower", "req_per_s", "registry", "-"},
	{"loadgen.section_p50_ms", "ms", "lower", "req_per_s", "registry", "-"},
	{"loadgen.put_p50_ms", "ms", "lower", "req_per_s", "registry", "-"},
	{"loadgen.run_p50_ms", "ms", "lower", "req_per_s", "registry", "-"},
	{"loadgen.tune_req_p50_ms", "ms", "lower", "req_per_s", "registry", "-"},
	{"loadgen.boot_p50_ms", "ms", "lower", "req_per_s", "registry", "-"},
}
