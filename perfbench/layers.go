package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/sim"
	"repro/internal/workload"
	"repro/platform/registry"
)

// kernelRounds sizes probe.kernel: 64 procs × 1000 ring rounds run about
// 200k events, enough to time the kernel without dwarfing the workload.
const kernelRounds = 1000

// kernelProbe runs ranks bare procs on the kernel kind a workload uses
// (single-lane, or lanes block-mapped like the mem fabric), passing a token
// around a ring with Advance, Route and Cond waits and no MPI above. It
// reports the events the kernel ran.
func kernelProbe(ranks, lanes int) (uint64, error) {
	const lat = time.Microsecond
	scheds := make([]*sim.Scheduler, ranks)
	laneOf := make([]int, ranks)
	var sh *sim.Shard
	var single *sim.Scheduler
	if lanes > 1 {
		sh = sim.NewShard(1, lanes, lat)
		for i := range scheds {
			laneOf[i] = i * lanes / ranks
			scheds[i] = sh.Lane(laneOf[i])
		}
	} else {
		single = sim.NewScheduler(1)
		for i := range scheds {
			scheds[i] = single
		}
	}
	conds := make([]*sim.Cond, ranks)
	got := make([]int, ranks)
	arrive := make([]func(), ranks)
	for i := range conds {
		i := i
		conds[i] = sim.NewCond(scheds[i])
		arrive[i] = func() {
			got[i]++
			conds[i].Signal()
		}
	}
	for i := 0; i < ranks; i++ {
		i := i
		dst := (i + 1) % ranks
		scheds[i].Spawn(fmt.Sprintf("probe%d", i), func(p *sim.Proc) {
			for r := 0; r < kernelRounds; r++ {
				p.Advance(lat)
				p.Scheduler().RouteAfter(laneOf[dst], lat, arrive[dst])
				for got[i] <= r {
					conds[i].Wait(p)
				}
			}
		})
	}
	if sh != nil {
		_, err := sh.Run()
		return sh.Events(), err
	}
	_, err := single.Run()
	return single.Events(), err
}

// layers makes traced runs of a workload for about budget and derives the
// per-layer metrics. Each iteration makes one untraced run (the reference
// for tracing overhead), one traced run with spans around registry.Build,
// workload.Run and the trace marshal, and the two probes of the ladder.
// Counts come from the traced run's mpi.Report; host times are medians
// over iterations.
func layers(b benchWorkload, seed int64, budget time.Duration) (map[string]reading, *checker, *tracer) {
	deadline := time.Now().Add(budget)
	spec, cfg := b.seeded(seed)
	memSpec, memCfg := spec, cfg
	memSpec.Platform, memSpec.Impl, memSpec.Transport = "mem", "", ""
	memCfg.Backend = memSpec.Key()
	ck := &checker{want: b.ops()}
	tr := &tracer{}

	var untraced, mallocs []float64
	var res, memRes *workload.Result
	var traceBytes int
	var kernelEvents uint64
	for iter := 0; iter < minRuns || time.Now().Before(deadline); iter++ {
		r, err := measuredRun(b, seed)
		ck.check(r, err)
		if err != nil {
			return nil, ck, tr
		}
		untraced = append(untraced, float64(r.wall))
		mallocs = append(mallocs, float64(r.mallocs))

		runtime.GC()
		root := tr.begin("perfbench.traced", -1)
		sp := tr.begin("registry.build", root)
		w, err := registry.Build(spec)
		tr.end(sp)
		if err != nil {
			ck.fail(ck.want, "registry.Build: %v", err)
			return nil, ck, tr
		}
		runtime.GC()
		sp = tr.begin("workload.run", root)
		res, err = workload.Run(w, cfg)
		tr.end(sp)
		var digest [sha256.Size]byte
		if err == nil {
			sp = tr.begin("workload.marshal", root)
			data := res.Trace.Marshal()
			tr.end(sp)
			traceBytes, digest = len(data), sha256.Sum256(data)
		}
		tr.end(root)
		ck.check(runStats{res: res, digest: digest}, err)
		if err != nil {
			return nil, ck, tr
		}

		runtime.GC()
		sp = tr.begin("probe.kernel", -1)
		kernelEvents, err = kernelProbe(ranksPerWorld, spec.Lanes)
		tr.end(sp)
		if err != nil {
			ck.fail(1, "probe.kernel: %v", err)
			return nil, ck, tr
		}

		mw, err := registry.Build(memSpec)
		if err == nil {
			runtime.GC()
			sp = tr.begin("probe.mem", -1)
			memRes, err = workload.Run(mw, memCfg)
			tr.end(sp)
		}
		if err != nil {
			ck.fail(1, "probe.mem: %v", err)
			return nil, ck, tr
		}
	}

	ops := float64(b.ops())
	rep, acct := res.Report, res.Report.Acct
	count := func(names ...string) float64 {
		var n int64
		for _, k := range names {
			n += acct.Count[k]
		}
		return float64(n)
	}
	virtUsPerOp := func(labels ...string) float64 {
		var d time.Duration
		for _, k := range labels {
			d += acct.Time[k]
		}
		return float64(d) / 1e3 / ops
	}
	sends := count("send")
	per := func(n float64) ratio { return ratio{n, ops, "SLO ops"} }
	perMsg := func(n float64) ratio { return ratio{n, sends, "sends"} }

	runNs := median(tr.selfTimes("workload.run"))
	memNs := median(tr.selfTimes("probe.mem"))
	kernelNsPerEvent := median(tr.selfTimes("probe.kernel")) / float64(kernelEvents)
	memSends := float64(memRes.Report.Acct.Count["send"])
	coreMPI := ratio{memNs - float64(memRes.Report.Events)*kernelNsPerEvent, memSends, "sends on mem"}
	platform := ratio{runNs - memNs, sends, "sends"}
	cluster := ratio{of: "sends: not this platform"}
	meiko := cluster
	switch spec.Platform {
	case "cluster":
		cluster = platform
	case "meiko":
		meiko = platform
	}

	var shard sim.ShardStats
	if rep.Shard != nil {
		shard = *rep.Shard
	}
	calls, rounds, collBytes, algs := collCounts(acct.Count)
	hits, gets := count("pool.hit"), count("pool.hit", "pool.miss")
	overhead := ratio{runNs, median(untraced), "ns untraced workload.run"}
	marshal := ratio{median(tr.selfTimes("workload.marshal")), float64(len(res.Trace.Events)), "trace events"}
	allocs := perMsg(median(mallocs))
	n := fmt.Sprintf("median of %d iterations", len(untraced))

	vals := map[string]reading{
		"registry.build_ms":             {median(tr.selfTimes("registry.build")) / 1e6, n},
		"workload.run_ms":               {runNs / 1e6, n},
		"sim.events_per_op":             fromRatio(per(float64(rep.Events))),
		"sim.kernel_ns_per_event":       {kernelNsPerEvent, fmt.Sprintf("%s; %d events per probe", n, kernelEvents)},
		"sim.stack_ns_per_event":        fromRatio(ratio{runNs, float64(rep.Events), "events"}),
		"sim.shard_epochs_per_op":       fromRatio(per(float64(shard.Epochs))),
		"sim.shard_routed_per_op":       fromRatio(per(float64(shard.Routed))),
		"sim.shard_stalls":              {float64(shard.Stalls), fmt.Sprintf("over %d epochs", shard.Epochs)},
		"sim.mailbox_max":               {float64(shard.MailboxHighWater), fmt.Sprintf("%d lanes", shard.Lanes)},
		"core.msgs_per_op":              fromRatio(per(sends)),
		"core.allocs_per_msg":           fromRatio(allocs),
		"core.pool_hit_ratio":           fromRatio(ratio{hits, gets, "pool gets"}),
		"core.posted_max":               {count("match.posted-max"), "high-water over ranks"},
		"core.unexpected_max":           {count("match.unexpected-max"), "high-water over ranks"},
		"core.match_us_per_op":          {virtUsPerOp("match"), "Acct.Time[match] over SLO ops"},
		"core.copy_us_per_op":           {virtUsPerOp("copy"), "Acct.Time[copy] over SLO ops"},
		"core.overhead_us_per_op":       {virtUsPerOp("overhead"), "Acct.Time[overhead] over SLO ops"},
		"core.protocol_us_per_op":       {virtUsPerOp("protocol"), "Acct.Time[protocol] over SLO ops"},
		"core.protocol_errors":          {float64(len(rep.Protocol)), "len(Report.Protocol)"},
		"core_mpi.host_ns_per_msg":      fromRatio(coreMPI),
		"flow.queued_ratio":             fromRatio(perMsg(count("flow-queued"))),
		"cluster.reads_per_msg":         fromRatio(perMsg(count("read-type", "read-env"))),
		"cluster.read_us_per_op":        {virtUsPerOp("read-type", "read-env", "read-data"), "Acct.Time[read-*] over SLO ops"},
		"cluster.host_ns_per_msg":       fromRatio(cluster),
		"meiko.host_ns_per_msg":         fromRatio(meiko),
		"coll.calls_per_op":             fromRatio(ratio{calls, ops, "SLO ops; picked " + algs}),
		"coll.rounds_per_call":          fromRatio(ratio{rounds, calls, "coll calls"}),
		"coll.bytes_per_call":           fromRatio(ratio{collBytes, calls, "coll calls"}),
		"workload.marshal_ns_per_event": fromRatio(marshal),
		"workload.trace_bytes_per_op":   fromRatio(per(float64(traceBytes))),
		"trace.overhead_ratio":          fromRatio(overhead),
	}
	return vals, ck, tr
}

// fromRatio reports a ratio's value with its base as the note.
func fromRatio(r ratio) reading { return reading{r.value(), r.String()} }

// collCounts sums the coll.<op>.<alg>, coll.<op>.rounds and coll.<op>.bytes
// counters the collective layer books, and names the algorithms picked.
func collCounts(counts map[string]int64) (calls, rounds, bytes float64, algs string) {
	var picked []string
	for k, v := range counts {
		op, field, ok := strings.Cut(strings.TrimPrefix(k, "coll."), ".")
		if !ok || !strings.HasPrefix(k, "coll.") {
			continue
		}
		switch field {
		case "rounds":
			rounds += float64(v)
		case "bytes":
			bytes += float64(v)
		default:
			calls += float64(v)
			picked = append(picked, fmt.Sprintf("%s/%s=%d", op, field, v))
		}
	}
	if len(picked) == 0 {
		picked = []string{"none"}
	}
	sort.Strings(picked)
	return calls, rounds, bytes, strings.Join(picked, " ")
}
