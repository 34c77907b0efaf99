package main

// metricDef names a reported metric and its unit. For a per-layer metric,
// target says which end-to-end metric a change in that layer should move,
// on which workloads it is mostly visible, and where it should stay flat.
//
// Virtual quantities carry virt_ units: they are the modelled MPI's output
// on the simulated clock, identical on every run of a seed, and are not
// host times.
type metricDef struct {
	name, unit, target string
}

// endToEndDefs are the untraced metrics (--trace 0). fail_ratio is printed
// too but stays out of this list: it is 0 on every workload, and the result
// line already carries it as failed over attempted.
var endToEndDefs = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "host_ops_per_s", unit: "ops/s"},
	{name: "allocs_per_op", unit: "allocs/op"},
	{name: "alloc_bytes_per_op", unit: "B/op"},
	{name: "heap_live_mb", unit: "MB"},
	{name: "virt_p50_us", unit: "virt_us"},
	{name: "virt_p99_us", unit: "virt_us"},
	{name: "virt_ops_per_s", unit: "ops/virt_s"},
}

// layerDefs are the traced metrics (--trace 1). Host time per layer comes
// only from spans around calls that never yield to other ranks and from
// the probe ladder: workload.run on the real backend, probe.mem (the same
// pattern on the mem fabric) and probe.kernel (bare procs on the same
// kernel). A span around a blocking mpi call would also cover every rank
// that ran while the caller was parked.
var layerDefs = []metricDef{
	{"registry.build_ms", "ms", "setup_s; all"},
	{"workload.run_ms", "ms", "host_ops_per_s; all"},
	{"sim.events_per_op", "events/op", "host_ops_per_s; all"},
	{"sim.kernel_ns_per_event", "ns", "host_ops_per_s; halo_tcp, rpc_meiko (shuffle_mem lanes already use coroutines)"},
	{"sim.stack_ns_per_event", "ns", "host_ops_per_s; all"},
	{"sim.shard_epochs_per_op", "epochs/op", "host_ops_per_s; shuffle_mem (0 on single-lane workloads)"},
	{"sim.shard_routed_per_op", "msgs/op", "host_ops_per_s; shuffle_mem (0 on single-lane workloads)"},
	{"sim.shard_stalls", "count", "host_ops_per_s; shuffle_mem (0 on single-lane workloads)"},
	{"sim.mailbox_max", "count", "host_ops_per_s; shuffle_mem (0 on single-lane workloads)"},
	{"core.msgs_per_op", "msgs/op", "host_ops_per_s; all"},
	{"core.allocs_per_msg", "allocs/msg", "allocs_per_op; all, halo_tcp for Cart.Shift"},
	{"core.pool_hit_ratio", "ratio", "alloc_bytes_per_op; shuffle_mem, rpc_meiko"},
	{"core.posted_max", "count", "host_ops_per_s; rpc_meiko (small on halo_tcp)"},
	{"core.unexpected_max", "count", "host_ops_per_s; rpc_meiko (small on halo_tcp)"},
	{"core.match_us_per_op", "virt_us", "virt_p99_us; halo_tcp, rpc_meiko (0 on shuffle_mem: mem books none)"},
	{"core.copy_us_per_op", "virt_us", "virt_p99_us; halo_tcp, rpc_meiko (0 on shuffle_mem: mem books none)"},
	{"core.overhead_us_per_op", "virt_us", "virt_p99_us; halo_tcp, rpc_meiko (0 on shuffle_mem: mem books none)"},
	{"core.protocol_us_per_op", "virt_us", "virt_p99_us; halo_tcp, rpc_meiko (small on shuffle_mem)"},
	{"core.protocol_errors", "count", "fail_ratio; all"},
	{"core_mpi.host_ns_per_msg", "ns", "host_ops_per_s; shuffle_mem (engine, flow, coll and mpi API on mem)"},
	{"flow.queued_ratio", "ratio", "virt_p99_us; rpc_meiko (flat on shuffle_mem)"},
	{"cluster.reads_per_msg", "reads/msg", "host_ops_per_s; halo_tcp (0 elsewhere)"},
	{"cluster.read_us_per_op", "virt_us", "virt_p99_us; halo_tcp (0 elsewhere)"},
	{"cluster.host_ns_per_msg", "ns", "host_ops_per_s; halo_tcp (0 elsewhere)"},
	{"meiko.host_ns_per_msg", "ns", "host_ops_per_s; rpc_meiko (0 elsewhere)"},
	{"coll.calls_per_op", "calls/op", "virt_p99_us, host_ops_per_s; shuffle_mem (halo_tcp: final barrier only; rpc_meiko: none)"},
	{"coll.rounds_per_call", "rounds", "virt_p99_us, host_ops_per_s; shuffle_mem (halo_tcp: final barrier only; rpc_meiko: none)"},
	{"coll.bytes_per_call", "B", "virt_p99_us, host_ops_per_s; shuffle_mem (halo_tcp: final barrier only; rpc_meiko: none)"},
	{"workload.marshal_ns_per_event", "ns", "host_ops_per_s; all (small)"},
	{"workload.trace_bytes_per_op", "B/op", "host_ops_per_s; all (small)"},
	{"trace.overhead_ratio", "ratio", "none: traced workload.run over the untraced median, near 1"},
}
