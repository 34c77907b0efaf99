package bench

import (
	"strings"
	"testing"
)

func TestScaleWorldKernelsAgree(t *testing.T) {
	single := dissemWorld(64, 0, 4, false)
	seq := dissemWorld(64, 64, 4, false)
	par := dissemWorld(64, 64, 4, true)
	if single.events != seq.events || seq.events != par.events {
		t.Fatalf("event counts diverged: single=%d seq=%d par=%d", single.events, seq.events, par.events)
	}
	if single.virtual != seq.virtual || seq.virtual != par.virtual {
		t.Fatalf("virtual times diverged: single=%v seq=%v par=%v", single.virtual, seq.virtual, par.virtual)
	}
	if seq.stats.Routed == 0 {
		t.Fatal("sharded run routed no cross-lane envelopes")
	}
}

func TestScaleCollectiveParitySmall(t *testing.T) {
	for _, backend := range []string{"mem", "meiko/lowlatency", "cluster/tcp"} {
		for _, op := range []string{"barrier", "bcast", "allreduce"} {
			single, _, err := collAtScale(backend, op, 16, 0, 256)
			if err != nil {
				t.Fatalf("%s %s single: %v", backend, op, err)
			}
			shard, _, err := collAtScale(backend, op, 16, 16, 256)
			if err != nil {
				t.Fatalf("%s %s sharded: %v", backend, op, err)
			}
			for i := range single {
				if single[i] != shard[i] {
					t.Fatalf("%s %s: rank %d finished at %v on single, %v on sharded", backend, op, i, single[i], shard[i])
				}
			}
		}
	}
}

func TestCheckScaleGate(t *testing.T) {
	good := ScaleReport{
		SchemaVersion: scaleSchemaVersion,
		MaxProcs:      1,
		Points: []ScalePoint{
			{Ranks: 64, Identical: true, SingleEvPerSec: 1e6, ShardEvPerSec: 3e6, Speedup: 3, ParallelEvPerSec: 3e6, ParallelSpeedup: 1},
			{Ranks: 1024, Identical: true, SingleEvPerSec: 1e6, ShardEvPerSec: 3e6, Speedup: 3, ParallelEvPerSec: 3e6, ParallelSpeedup: 1},
		},
		Collectives: []ScaleCollPoint{
			{Op: "barrier", Ranks: 1024, Identical: true}, // backendless = mem (schema v0)
			{Backend: "meiko/lowlatency", Op: "barrier", Ranks: 256, Identical: true},
			{Backend: "cluster/tcp", Op: "barrier", Ranks: 64, Identical: true},
		},
	}
	if fails := CheckScale(good, nil, 0.10); len(fails) != 0 {
		t.Fatalf("clean report failed the gate: %v", fails)
	}

	bad := good
	bad.LaneAllocsPerOp = 1
	requireFail(t, CheckScale(bad, nil, 0.10), "allocates")

	bad = good
	bad.Points = append([]ScalePoint(nil), good.Points...)
	bad.Points[1].Identical = false
	requireFail(t, CheckScale(bad, nil, 0.10), "diverged")

	bad = good
	bad.Points = append([]ScalePoint(nil), good.Points...)
	bad.Points[1].Speedup = 1.05
	requireFail(t, CheckScale(bad, nil, 0.10), "below the 1.1x floor")
	bad.Points[1].Speedup = 1.15
	if fails := CheckScale(bad, nil, 0.10); len(fails) != 0 {
		t.Fatalf("1.15x sharded speedup failed the 1.1x floor: %v", fails)
	}

	bad = good
	bad.Points = good.Points[:1] // no >=1024-rank point
	requireFail(t, CheckScale(bad, nil, 0.10), "no >=1024-rank point")

	bad = good
	bad.Collectives = append([]ScaleCollPoint(nil), good.Collectives...)
	bad.Collectives[0].Identical = false
	requireFail(t, CheckScale(bad, nil, 0.10), "finish times diverged")

	// A backend silently dropping out of the collective sweep fails.
	bad = good
	bad.Collectives = good.Collectives[:2] // no cluster points
	requireFail(t, CheckScale(bad, nil, 0.10), "no cluster/tcp collective points")

	// The parallel executor must not run meaningfully slower than the
	// sequential sharded kernel, on any machine.
	bad = good
	bad.Points = append([]ScalePoint(nil), good.Points...)
	bad.Points[1].ParallelEvPerSec = 3e6 * 0.8
	bad.Points[1].ParallelSpeedup = 0.8
	requireFail(t, CheckScale(bad, nil, 0.10), "slower than sequential")

	// The 1.5x parallel-speedup floor binds only on multi-core machines:
	// a 1.0x report passes from a single-core runner, fails from a
	// multi-core one.
	multi := good
	multi.MaxProcs = 8
	requireFail(t, CheckScale(multi, nil, 0.10), "below the 1.5x floor")
	multi.Points = append([]ScalePoint(nil), good.Points...)
	multi.Points[1].ParallelEvPerSec = 3e6 * 2
	multi.Points[1].ParallelSpeedup = 2
	if fails := CheckScale(multi, nil, 0.10); len(fails) != 0 {
		t.Fatalf("2x parallel speedup failed the multi-core gate: %v", fails)
	}

	// Baseline comparisons: a >10% events/sec drop fails, a smaller one and
	// a baseline-only 16384 point do not.
	base := good
	base.Points = append([]ScalePoint(nil), good.Points...)
	base.Points = append(base.Points, ScalePoint{Ranks: 16384, Identical: true, SingleEvPerSec: 1e6, ShardEvPerSec: 3e6, Speedup: 3})
	cur := good
	cur.Points = append([]ScalePoint(nil), good.Points...)
	cur.Points[1].ShardEvPerSec = 3e6 * 0.95
	if fails := CheckScale(cur, &base, 0.10); len(fails) != 0 {
		t.Fatalf("5%% drop tripped the 10%% gate: %v", fails)
	}
	cur.Points[1].ShardEvPerSec = 3e6 * 0.8
	requireFail(t, CheckScale(cur, &base, 0.10), "regressed")

	cur = good
	base.LaneAllocsPerOp = 0
	cur.LaneAllocsPerOp = 0
	base2 := base
	cur2 := cur
	cur2.LaneAllocsPerOp = 0
	base2.LaneAllocsPerOp = -1 // any increase over baseline fails
	requireFail(t, CheckScale(cur2, &base2, 0.10), "exceeds baseline")
}

func requireFail(t *testing.T, fails []string, substr string) {
	t.Helper()
	for _, f := range fails {
		if strings.Contains(f, substr) {
			return
		}
	}
	t.Fatalf("gate did not report %q: %v", substr, fails)
}

func TestScaleReportRoundTrip(t *testing.T) {
	rep := ScaleReport{
		SchemaVersion:   scaleSchemaVersion,
		MaxProcs:        4,
		Points:          []ScalePoint{{Ranks: 64, Lanes: 64, Events: 7744, Identical: true, Speedup: 2.5}},
		Collectives:     []ScaleCollPoint{{Backend: "meiko/lowlatency", Op: "bcast", Ranks: 1024, Bytes: 1024, Identical: true}},
		LaneAllocsPerOp: 0,
	}
	data, err := rep.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalScale(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Points) != 1 || back.Points[0].Ranks != 64 || len(back.Collectives) != 1 {
		t.Fatalf("round trip mangled the report: %+v", back)
	}
	if back.SchemaVersion != scaleSchemaVersion || back.MaxProcs != 4 || collBackend(back.Collectives[0]) != "meiko/lowlatency" {
		t.Fatalf("round trip dropped v1 fields: %+v", back)
	}
	// A schema-v0 (mem-only) baseline still parses: missing fields default
	// and backendless collective points read as mem.
	v0, err := UnmarshalScale([]byte(`{"points":[{"ranks":1024}],"collectives":[{"op":"barrier","ranks":1024,"identical":true}],"lane_allocs_per_op":0}`))
	if err != nil {
		t.Fatal(err)
	}
	if v0.SchemaVersion != 0 || collBackend(v0.Collectives[0]) != "mem" {
		t.Fatalf("v0 baseline misparsed: %+v", v0)
	}
}
