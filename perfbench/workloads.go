package main

import (
	"repro/internal/workload"
	"repro/platform/registry"
)

// Seeds. Claims made against this benchmark must hold on both: the default
// seed is the one tuning runs use, the held-out seed is kept for checking a
// claim afterwards.
const (
	defaultSeed   = 1
	heldOutSeed   = 7919
	ranksPerWorld = 64
)

// benchWorkload is one benchmark input: a backend and kernel to build
// through the registry, and the workload config to drive on it.
type benchWorkload struct {
	name string
	why  string
	spec registry.Spec
	cfg  workload.Config
}

// The workloads each load a different set of layers, so a gain in one
// layer shows on the workload that uses it and leaves the others flat.
// All run at 64 ranks in one process on the sequential kernels, so no run
// needs more OS threads than a two-core host has.
var workloads = []benchWorkload{
	{
		name: "halo_tcp",
		why: "2-D halo on cluster/tcp, single-lane kernel, 1 KiB eager: socket transport, credit flow, " +
			"exact-match p2p and the proc handoff, almost no collectives",
		spec: registry.Spec{Platform: "cluster", Transport: "tcp"},
		cfg:  workload.Config{Pattern: "halo", Steps: 200, Bytes: 1024},
	},
	{
		name: "shuffle_mem",
		why: "Alltoall on the ideal mem fabric, 8-lane sharded kernel, 1 KiB rendezvous: collectives and " +
			"many in-flight requests, bypassing the handoff, the cost models and the cluster transport",
		spec: registry.Spec{Platform: "mem", Lanes: 8},
		cfg:  workload.Config{Pattern: "shuffle", Steps: 50, Bytes: 1024},
	},
	{
		name: "rpc_meiko",
		why: "open-loop Poisson RPC fan-in on meiko/lowlatency, 64 B eager at 100 req/s per client: " +
			"wildcard probes, the unexpected queue, Elan cost model and flow slot credits",
		spec: registry.Spec{Platform: "meiko", Impl: "lowlatency"},
		cfg:  workload.Config{Pattern: "rpc", Steps: 500, Bytes: 64, Rate: 100},
	},
}

func lookupWorkload(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

// seeded returns the spec and normalized config for one run at seed.
func (b benchWorkload) seeded(seed int64) (registry.Spec, workload.Config) {
	spec, cfg := b.spec, b.cfg
	spec.Ranks, spec.Seed, spec.Workload = ranksPerWorld, seed, cfg.Pattern
	cfg.Backend, cfg.Ranks, cfg.Seed = spec.Key(), ranksPerWorld, seed
	cfg.Lanes, cfg.Parallel = spec.Lanes, spec.Parallel
	return spec, cfg.Norm()
}

// ops is the SLO count one run must complete.
func (b benchWorkload) ops() int {
	return expectedOps(b.cfg.Pattern, b.cfg.Steps, ranksPerWorld)
}
