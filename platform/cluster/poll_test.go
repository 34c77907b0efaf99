package cluster

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/workload"
	"repro/platform/registry"
)

// walk runs one sweep over r, recording the visit order. ready is the
// ready check; during is called after each visit to mutate the set
// mid-sweep.
func walk(r readySet, start, n int, ready func(int) bool, during func(j int)) []int {
	var got []int
	r.sweep(start, n, ready, func(j int) bool {
		got = append(got, j)
		if during != nil {
			during(j)
		}
		return false
	})
	return got
}

func always(int) bool { return true }

func setOf(n int, bits ...int) readySet {
	r := make(readySet, (n+63)/64)
	for _, b := range bits {
		r.set(b)
	}
	return r
}

// The sweep visits set bits in the rotated order start…n-1, 0…start-1,
// across word boundaries.
func TestReadySetSweepWrapsAround(t *testing.T) {
	const n = 130
	r := setOf(n, 5, 64, 101, 129, 0)
	if got, want := walk(r, 100, n, always, nil), []int{101, 129, 0, 5, 64}; !slices.Equal(got, want) {
		t.Fatalf("start 100: visited %v, want %v", got, want)
	}
	if got, want := walk(r, 0, n, always, nil), []int{0, 5, 64, 101, 129}; !slices.Equal(got, want) {
		t.Fatalf("start 0: visited %v, want %v", got, want)
	}
	if got, want := walk(r, 129, n, always, nil), []int{129, 0, 5, 64, 101}; !slices.Equal(got, want) {
		t.Fatalf("start 129: visited %v, want %v", got, want)
	}
	if got := walk(setOf(n), 7, n, always, nil); len(got) != 0 {
		t.Fatalf("empty set visited %v", got)
	}
}

// A bit set mid-sweep ahead of the cursor is visited in the same sweep —
// including one past the wrap point — while a bit set behind the cursor
// waits for the next sweep, exactly as a scan of every index would see it.
func TestReadySetSweepSeesMidPassArrivals(t *testing.T) {
	const n = 70
	r := setOf(n, 10, 40)
	got := walk(r, 30, n, always, func(j int) {
		if j == 40 {
			r.set(65) // ahead, same segment
			r.set(3)  // ahead, after the wrap
			r.set(35) // behind the cursor
			r.set(40) // the bit just visited: behind too
		}
	})
	if want := []int{40, 65, 3, 10}; !slices.Equal(got, want) {
		t.Fatalf("visited %v, want %v", got, want)
	}
	if got, want := walk(r, 30, n, always, nil), []int{35, 40, 65, 3, 10}; !slices.Equal(got, want) {
		t.Fatalf("next sweep visited %v, want %v", got, want)
	}
}

// A set bit whose ready check fails is skipped and cleared; bits that stay
// ready stay set. An early stop leaves the rest of the set untouched.
func TestReadySetSweepClearsLazily(t *testing.T) {
	const n = 128
	r := setOf(n, 1, 63, 64, 100)
	drained := func(j int) bool { return j != 63 && j != 100 }
	if got, want := walk(r, 0, n, drained, nil), []int{1, 64}; !slices.Equal(got, want) {
		t.Fatalf("visited %v, want %v", got, want)
	}
	if got, want := walk(r, 0, n, always, nil), []int{1, 64}; !slices.Equal(got, want) {
		t.Fatalf("drained bits not cleared: visited %v, want %v", got, want)
	}
	r.set(100)
	if !r.sweep(90, n, always, func(j int) bool { return j == 100 }) {
		t.Fatal("sweep did not report the early stop")
	}
	if got, want := walk(r, 0, n, always, nil), []int{1, 64, 100}; !slices.Equal(got, want) {
		t.Fatalf("after early stop visited %v, want %v", got, want)
	}
}

// rpcFinish64 is each rank's finish time in the 64-rank rpc golden run.
var rpcFinish64 = []time.Duration{
	140120809, 96055795, 121138960, 121414475, 129955440, 133537135, 130506470, 133812650,
	140700525, 111220420, 131057500, 131333015, 112046965, 131608530, 123067565, 139873980,
	112873510, 137394345, 136843315, 100469685, 123894110, 113424540, 124169625, 134639195,
	135465740, 132435075, 134088165, 132710590, 102122775, 137118830, 125822715, 132986105,
	115077630, 126373745, 115628660, 139598465, 126649260, 103775865, 138771920, 126924775,
	137669860, 127200290, 117281750, 117557265, 117832780, 118108295, 127475805, 127751320,
	118934840, 133261620, 119210355, 140425010, 107363210, 128577865, 107914240, 94124365,
	135741255, 120036900, 108465270, 108740785, 129128895, 129404410, 109567330, 129679925,
}

// 64-rank workloads on cluster/tcp pin the TCP poll order: every parse
// advances virtual time, so reading connections in any other order moves
// the trace. The digests and finish times were recorded with the original
// scan over every connection. The halos cover eager frames and, at 32 KiB,
// inbound frames drained from inside interleaved rendezvous writes; the
// rpc server polls 63 connections at once, so it also pins the round-robin
// start of each pass.
func TestTCP64Golden(t *testing.T) {
	for _, tc := range []struct {
		cfg    workload.Config
		sha    string
		finish []time.Duration // per rank; one entry means every rank
	}{
		{workload.Config{Pattern: "halo", Steps: 4, Bytes: 1024},
			"164938bf15842614601a7b1f44af3965e399d5c4c2413cdc2425fad61f33a448", []time.Duration{22582860}},
		{workload.Config{Pattern: "halo", Steps: 4, Bytes: 32 << 10},
			"b3acff57ba6806654545c500424b25bebc39c18960158c692ee25df7f153bda1", []time.Duration{131594076}},
		{workload.Config{Pattern: "rpc", Steps: 4, Bytes: 64, Rate: 100},
			"40de75e1bc031e2a0b643067c7cb5aba51be284d80c0cfedf312af09268116c3", rpcFinish64},
	} {
		cfg := tc.cfg
		t.Run(fmt.Sprintf("%s_%d", cfg.Pattern, cfg.Bytes), func(t *testing.T) {
			spec := registry.SpecFor("cluster/tcp")
			spec.Ranks, spec.Seed, spec.Lanes = 64, 1, 1
			w, err := registry.Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Backend, cfg.Ranks, cfg.Seed = "cluster/tcp", 64, 1
			res, err := workload.Run(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if sha := fmt.Sprintf("%x", sha256.Sum256(res.Trace.Marshal())); sha != tc.sha {
				t.Errorf("trace sha256 %s, want %s", sha, tc.sha)
			}
			for r, d := range res.Report.RankElapsed {
				want := tc.finish[0]
				if len(tc.finish) > 1 {
					want = tc.finish[r]
				}
				if d != want {
					t.Errorf("rank %d finished at %d ns, want %d", r, d, want)
				}
			}
		})
	}
}

// Jitter reorders TCP segments on the wire. The receiver must reassemble
// them in sequence order: appending them in arrival order corrupts the
// framing, and the job then parks every rank on a frame that never
// completes. 32 KiB frames span several segments, so a halo exchange under
// 500 µs of jitter reorders many of them.
func TestTCPJitterReorder(t *testing.T) {
	spec := registry.SpecFor("cluster/tcp")
	spec.Ranks, spec.Seed, spec.Jitter = 8, 1, 500*time.Microsecond
	w, err := registry.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.Config{Pattern: "halo", Backend: "cluster/tcp", Ranks: 8, Seed: 1, Steps: 20, Bytes: 32 << 10}
	res, err := workload.Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Summary.Events, 20*8; got != want {
		t.Errorf("%d SLO events, want %d", got, want)
	}
	if len(res.Report.Protocol) != 0 {
		t.Errorf("protocol errors: %v", res.Report.Protocol)
	}
}
