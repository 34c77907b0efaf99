package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"repro/internal/workload"
	"repro/mpi"
	"repro/platform/registry"
)

// timedBuild builds a world from a collected heap and reports how long
// registry.Build took.
func timedBuild(spec registry.Spec) (*mpi.World, time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	w, err := registry.Build(spec)
	return w, time.Since(t0), err
}

// runStats is one untraced workload run: host wall time and heap traffic
// inside workload.Run, and the live heap once it finished.
type runStats struct {
	build    time.Duration
	wall     time.Duration
	mallocs  uint64
	bytes    uint64
	heapLive uint64
	res      *workload.Result
	digest   [sha256.Size]byte
}

// measuredRun builds a fresh world and drives the workload on it once.
func measuredRun(b benchWorkload, seed int64) (runStats, error) {
	spec, cfg := b.seeded(seed)
	w, build, err := timedBuild(spec)
	if err != nil {
		return runStats{}, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	res, err := workload.Run(w, cfg)
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)
	if err != nil {
		return runStats{}, err
	}
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	runtime.KeepAlive(w)
	return runStats{
		build:    build,
		wall:     wall,
		mallocs:  after.Mallocs - before.Mallocs,
		bytes:    after.TotalAlloc - before.TotalAlloc,
		heapLive: live.HeapAlloc,
		res:      res,
		digest:   sha256.Sum256(res.Trace.Marshal()),
	}, nil
}

// virtual is what the modelled MPI outputs on the virtual clock. Runs of
// one seed must agree on it exactly, whatever the host did.
type virtual struct {
	summary workload.Summary
	events  uint64
	digest  [sha256.Size]byte
}

// checker validates runs and tallies failures: a missing or failed SLO op
// counts once, as does every failed output check.
type checker struct {
	want      int
	first     *virtual
	attempted int
	failed    int
	problems  []string
}

func (c *checker) fail(n int, format string, args ...any) {
	c.failed += n
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
}

// check scores one run; err is the run's own error, which loses all its ops.
func (c *checker) check(r runStats, err error) {
	c.attempted += c.want
	if err != nil {
		c.fail(c.want, "run failed: %v", err)
		return
	}
	if n := len(r.res.Report.Protocol); n > 0 {
		c.fail(n, "%d protocol errors, first: %v", n, r.res.Report.Protocol[0])
	}
	if got := r.res.Summary.Events; got != c.want {
		missing := c.want - got
		if missing < 0 {
			missing = -missing
		}
		c.fail(missing, "%d SLO ops completed, config implies %d", got, c.want)
	}
	v := virtual{summary: r.res.Summary, events: r.res.Report.Events, digest: r.digest}
	switch {
	case c.first == nil:
		c.first = &v
	case v.digest != c.first.digest:
		c.fail(1, "trace digest %x differs from the first run's %x", v.digest[:8], c.first.digest[:8])
	case v != *c.first:
		c.fail(1, "virtual results %+v differ from the first run's %+v", v.summary, c.first.summary)
	}
}

// endToEnd measures a workload untraced for about budget: whole runs, each
// on a freshly built world and followed by more timed builds, until the
// budget is spent.
func endToEnd(b benchWorkload, seed int64, budget time.Duration) (map[string]reading, *checker) {
	deadline := time.Now().Add(budget)
	spec, _ := b.seeded(seed)
	ck := &checker{want: b.ops()}
	var setup, opsPerS, allocs, bytes, live []float64
	build := func() bool {
		_, d, err := timedBuild(spec)
		if err != nil {
			ck.fail(1, "registry.Build: %v", err)
			return false
		}
		setup = append(setup, d.Seconds())
		return true
	}
	for i := 0; i < warmBuilds; i++ {
		if !build() {
			return nil, ck
		}
	}
	setup = setup[:0]
	for len(opsPerS) < minRuns || time.Now().Before(deadline) {
		r, err := measuredRun(b, seed)
		ck.check(r, err)
		if err != nil {
			return nil, ck
		}
		ops := float64(b.ops())
		setup = append(setup, r.build.Seconds())
		opsPerS = append(opsPerS, ops/r.wall.Seconds())
		allocs = append(allocs, float64(r.mallocs)/ops)
		bytes = append(bytes, float64(r.bytes)/ops)
		live = append(live, float64(r.heapLive)/1e6)
		for i := 0; i < buildsPerRun; i++ {
			if !build() {
				return nil, ck
			}
		}
	}
	s := ck.first.summary
	n := fmt.Sprintf("median of %d runs", len(opsPerS))
	return map[string]reading{
		"setup_s":            {median(setup), fmt.Sprintf("median of %d builds", len(setup))},
		"host_ops_per_s":     {median(opsPerS), n + fmt.Sprintf(" of %d ops", b.ops())},
		"allocs_per_op":      {median(allocs), n},
		"alloc_bytes_per_op": {median(bytes), n},
		"heap_live_mb":       {median(live), n},
		"virt_p50_us":        {s.P50US, fmt.Sprintf("%d samples", s.Events)},
		"virt_p99_us":        {s.P99US, fmt.Sprintf("%d samples, %d beyond", s.Events, s.Events/100)},
		"virt_ops_per_s":     {s.OpsPerSec, fmt.Sprintf("%d ops in %.1f virt_us", s.Events, s.ElapsedUS)},
	}, ck
}
