package registry_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/mpi"
	"repro/platform/registry"

	_ "repro/platform/cluster"
	_ "repro/platform/meiko"
)

// The full backend set every entrypoint may name. A newly registered
// backend extends this list and is picked up by the conformance matrix
// automatically.
var wantBackends = []string{
	"cluster/shm", "cluster/tcp", "cluster/udp", "cluster/unet",
	"meiko/lowlatency", "meiko/mpich",
	"mem",
}

func TestNamesComplete(t *testing.T) {
	got := registry.Names()
	for _, want := range wantBackends {
		found := false
		for _, name := range got {
			if name == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("backend %q not registered (have %v)", want, got)
		}
	}
}

func TestSpecKeyRoundTrip(t *testing.T) {
	for _, name := range registry.Names() {
		if key := registry.SpecFor(name).Key(); key != name {
			t.Errorf("SpecFor(%q).Key() = %q", name, key)
		}
	}
}

func TestSpecKeyDefaults(t *testing.T) {
	if k := (registry.Spec{Platform: "meiko"}).Key(); k != "meiko/lowlatency" {
		t.Errorf("meiko default key = %q", k)
	}
	if k := (registry.Spec{Platform: "cluster"}).Key(); k != "cluster/tcp" {
		t.Errorf("cluster default key = %q", k)
	}
}

func TestBuildUnknownListsBackends(t *testing.T) {
	_, err := registry.Build(registry.Spec{Platform: "hypercube", Ranks: 2})
	if err == nil {
		t.Fatal("unknown backend must fail")
	}
	for _, want := range wantBackends {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not list %q", err, want)
		}
	}
}

func TestBuildRejectsBadSpecs(t *testing.T) {
	if _, err := registry.Build(registry.Spec{Platform: "meiko"}); err == nil {
		t.Error("zero ranks must fail")
	}
	if _, err := registry.Build(registry.Spec{Platform: "cluster", Ranks: 2, Network: "token-ring"}); err == nil {
		t.Error("unknown network must fail")
	}
	if _, err := registry.Build(registry.Spec{Platform: "cluster", Ranks: 2, Costs: 42}); err == nil {
		t.Error("wrong costs type must fail")
	}
	if _, err := registry.Build(registry.Spec{Platform: "cluster", Transport: "unet", Network: "eth", Ranks: 2}); err == nil {
		t.Error("unet over ethernet must fail")
	}
}

// Every backend accepts the sharded kernel — including fault injection
// across lanes, now that the injector draws per-link RNG streams — and the
// one remaining restriction (no parallel execution without lanes) must
// fail loudly rather than degrade silently.
func TestBuildShardedKernel(t *testing.T) {
	for _, name := range registry.Names() {
		spec := registry.SpecFor(name)
		spec.Ranks, spec.Lanes = 2, 2
		if _, err := registry.Build(spec); err != nil {
			t.Errorf("backend %q rejected Lanes=2: %v", name, err)
		}
	}
	if _, err := registry.Build(registry.Spec{Platform: "cluster", Ranks: 2, Lanes: 2, LossRate: 0.01}); err != nil {
		t.Errorf("faults must compose with lanes (per-link RNG streams), got %v", err)
	}
	if _, err := registry.Build(registry.Spec{Platform: "cluster", Transport: "shm", Ranks: 2, LossRate: 0.01}); err == nil || !strings.Contains(err.Error(), "lossy wire") {
		t.Errorf("shm with faults must be rejected, got %v", err)
	}
	if _, err := registry.Build(registry.Spec{Platform: "mem", Ranks: 2, Parallel: true}); err == nil {
		t.Error("Parallel without lanes must fail")
	}
}

// Every backend must run a minimal job end to end through Run.
func TestRunSmokeEveryBackend(t *testing.T) {
	for _, name := range registry.Names() {
		name := name
		t.Run(strings.ReplaceAll(name, "/", "_"), func(t *testing.T) {
			spec := registry.SpecFor(name)
			spec.Ranks = 2
			rep, err := registry.Run(spec, func(c *mpi.Comm) error {
				buf := make([]byte, 8)
				if c.Rank() == 0 {
					if err := c.Send(1, 1, []byte("pingpong")); err != nil {
						return err
					}
					_, err := c.Recv(1, 2, buf)
					return err
				}
				if _, err := c.Recv(0, 1, buf); err != nil {
					return err
				}
				return c.Send(0, 2, buf)
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Acct.Count["send"] != 2 || rep.Acct.Count["recv"] != 2 {
				t.Fatalf("counts = %v", rep.Acct.Count)
			}
		})
	}
}

// A blocking ping-pong allocates only its send and receive requests, one
// of each per rank per round trip, once the transports' record lists and
// buffer pools are warm.
func TestPingPongAllocBudget(t *testing.T) {
	const warm, runs = 64, 200
	for _, tc := range []struct {
		name   string
		spec   registry.Spec
		size   int
		budget float64
	}{
		{"meiko-lowlatency-64B-eager", registry.Spec{Platform: "meiko", Ranks: 2}, 64, 4},
		{"mem-1KiB-rendezvous", registry.Spec{Platform: "mem", Ranks: 2}, 1024, 4},
		{"mem-1KiB-rendezvous-2-lanes", registry.Spec{Platform: "mem", Ranks: 2, Lanes: 2}, 1024, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var allocs float64
			_, err := registry.Run(tc.spec, func(c *mpi.Comm) error {
				data := make([]byte, tc.size)
				buf := make([]byte, tc.size)
				var err error
				if c.Rank() == 0 {
					rtt := func() {
						if err == nil {
							err = c.Send(1, 0, data)
						}
						if err == nil {
							_, err = c.Recv(1, 0, buf)
						}
					}
					for i := 0; i < warm; i++ {
						rtt()
					}
					allocs = testing.AllocsPerRun(runs, rtt)
					return err
				}
				for i := 0; i < warm+runs+1 && err == nil; i++ {
					if _, err = c.Recv(0, 0, buf); err == nil {
						err = c.Send(0, 0, data)
					}
				}
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			if allocs > tc.budget {
				t.Fatalf("%d B round trip allocates %.1f objects, budget %v", tc.size, allocs, tc.budget)
			}
		})
	}
}

// On a sharded mem shuffle every payload, cross-lane ones included, draws
// its bounce buffer from the sender's pool and is recycled into the
// receiver's, so after warm-up the pools stop missing.
func TestShardedMemShufflePoolReuse(t *testing.T) {
	const ranks, block, warm, steps = 8, 1024, 8, 16
	_, err := registry.Run(registry.Spec{Platform: "mem", Ranks: ranks, Lanes: 2}, func(c *mpi.Comm) error {
		send := make([]byte, ranks*block)
		recv := make([]byte, ranks*block)
		shuffle := func(n int) error {
			for i := 0; i < n; i++ {
				if err := c.Alltoall(send, recv); err != nil {
					return err
				}
			}
			return nil
		}
		if err := shuffle(warm); err != nil {
			return err
		}
		acct := c.Acct()
		miss, hit := acct.Count[core.PoolMiss], acct.Count[core.PoolHit]
		if err := shuffle(steps); err != nil {
			return err
		}
		if d := acct.Count[core.PoolMiss] - miss; d != 0 {
			return fmt.Errorf("rank %d: %d pool misses after warm-up", c.Rank(), d)
		}
		if d := acct.Count[core.PoolHit] - hit; d < steps*(ranks-1) {
			return fmt.Errorf("rank %d: %d pool hits for %d payloads", c.Rank(), d, steps*(ranks-1))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
