package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

func TestValidName(t *testing.T) {
	for _, ok := range []string{"setup_s", "core.pool_hit_ratio", "core_mpi.host_ns_per_msg", "9lives", "a-b"} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false, want true", ok)
		}
	}
	for _, bad := range []string{"", "_lead", ".lead", "has space", "p99/us", "ünits", strings.Repeat("x", 65)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true, want false", bad)
		}
	}
}

func TestRatio(t *testing.T) {
	r := ratio{3, 4, "sends"}
	if got := r.value(); got != 0.75 {
		t.Errorf("value = %g, want 0.75", got)
	}
	if got, want := r.String(), "3 of 4 sends"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if got := (ratio{5, 0, "sends"}).value(); got != 0 {
		t.Errorf("value over an empty base = %g, want 0", got)
	}
}

func TestExpectedOps(t *testing.T) {
	for _, c := range []struct {
		pattern      string
		steps, ranks int
		want         int
	}{
		{"halo", 200, 64, 12800},
		{"shuffle", 50, 64, 3200},
		{"rpc", 500, 64, 31500},
		{"rpc", 3, 2, 3},
	} {
		if got := expectedOps(c.pattern, c.steps, c.ranks); got != c.want {
			t.Errorf("expectedOps(%s, %d, %d) = %d, want %d", c.pattern, c.steps, c.ranks, got, c.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{Name: "root", Start: at(0), End: at(100), Parent: -1},
		{Name: "a", Start: at(10), End: at(30), Parent: 0},
		{Name: "b", Start: at(20), End: at(40), Parent: 0},      // overlaps a: 10..40 covered once
		{Name: "c", Start: at(90), End: at(120), Parent: 0},     // only 90..100 is inside root
		{Name: "a.1", Start: at(12), End: at(18), Parent: 1},    // grandchild: not root's child
		{Name: "other", Start: at(50), End: at(60), Parent: -1}, // another root
	}
	for _, c := range []struct {
		i    int
		want time.Duration
	}{
		{0, 60 * time.Millisecond},
		{1, 14 * time.Millisecond},
		{4, 6 * time.Millisecond},
		{5, 10 * time.Millisecond},
	} {
		if got := selfTime(spans, c.i); got != c.want {
			t.Errorf("selfTime(%s) = %v, want %v", spans[c.i].Name, got, c.want)
		}
	}
}

func TestCollCounts(t *testing.T) {
	calls, rounds, bytes, algs := collCounts(map[string]int64{
		"coll.alltoall.pairwise": 10, "coll.alltoall.rounds": 630, "coll.alltoall.bytes": 4096,
		"coll.barrier.dissemination": 2, "coll.barrier.rounds": 12, "send": 99,
	})
	if calls != 12 || rounds != 642 || bytes != 4096 {
		t.Errorf("collCounts = %g calls, %g rounds, %g bytes; want 12, 642, 4096", calls, rounds, bytes)
	}
	if want := "alltoall/pairwise=10 barrier/dissemination=2"; algs != want {
		t.Errorf("algorithms = %q, want %q", algs, want)
	}
}

// The program's metric catalog and workloads are the ones BENCHMARK.json
// declares, in name and unit.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, defs []metricDef, decl []struct{ Name, Unit string }) {
		if len(defs) != len(decl) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(defs), len(decl))
		}
		for i, d := range defs {
			if d.name != decl[i].Name || d.unit != decl[i].Unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)", kind, i, d.name, d.unit, decl[i].Name, decl[i].Unit)
			}
			if !validName(d.name) {
				t.Errorf("%s: invalid name %q", kind, d.name)
			}
		}
	}
	same("end_to_end", endToEndDefs, bj.EndToEnd)
	same("per_layer", layerDefs, bj.PerLayer)
	for _, d := range layerDefs {
		if d.target == "" {
			t.Errorf("per-layer metric %s names no target", d.name)
		}
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %s: %s", i, bj.Workloads[i], w.name, w.why)
		}
	}
}
