package meiko

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// The sharded machine is the same cost model on a different kernel: raw
// media operations must complete at exactly the single-scheduler times.
func TestShardedMachineMatchesSingleScheduler(t *testing.T) {
	c := DefaultCosts()
	type result struct{ txn, dmaLocal, dmaRemote, bcast1, bcast2 sim.Time }
	run := func(m *Machine, drive func() (sim.Time, error)) result {
		var r result
		src := m.Nodes[0]
		src.Txn(1, 64, false, sim.Func(func() { r.txn = m.Nodes[1].S.Now() }))
		src.DMA(2, 4096,
			func() { r.dmaLocal = src.S.Now() },
			func() { r.dmaRemote = m.Nodes[2].S.Now() })
		src.Broadcast(128, nil, func(dst *Node) {
			if dst.ID == 1 {
				r.bcast1 = dst.S.Now()
			}
			if dst.ID == 2 {
				r.bcast2 = dst.S.Now()
			}
		})
		if _, err := drive(); err != nil {
			t.Fatal(err)
		}
		return r
	}
	s := sim.NewScheduler(1)
	want := run(NewMachine(s, 3, c), s.Run)
	sh := sim.NewShard(1, 3, sim.Duration(c.WireLatency))
	got := run(NewShardedMachine(sh, []int{0, 1, 2}, 3, c), sh.Run)
	if got != want {
		t.Fatalf("sharded machine times %+v != single-scheduler times %+v", got, want)
	}
	if want.txn == 0 || want.dmaRemote == 0 || want.bcast2 == 0 {
		t.Fatalf("deliveries did not run: %+v", want)
	}
}

// Contention on a destination Elan from two source nodes on different
// lanes must serialize exactly as on one scheduler.
func TestShardedMachineElanContention(t *testing.T) {
	c := DefaultCosts()
	run := func(m *Machine, drive func() (sim.Time, error)) []sim.Time {
		var ends []sim.Time
		m.Nodes[0].Txn(2, 256, false, sim.Func(func() { ends = append(ends, m.Nodes[2].S.Now()) }))
		m.Nodes[1].Txn(2, 256, false, sim.Func(func() { ends = append(ends, m.Nodes[2].S.Now()) }))
		if _, err := drive(); err != nil {
			t.Fatal(err)
		}
		return ends
	}
	s := sim.NewScheduler(1)
	want := run(NewMachine(s, 3, c), s.Run)
	sh := sim.NewShard(1, 3, sim.Duration(c.WireLatency))
	got := run(NewShardedMachine(sh, []int{0, 1, 2}, 3, c), sh.Run)
	if len(got) != len(want) {
		t.Fatalf("deliveries: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery %d at %v sharded, %v single", i, got[i], want[i])
		}
	}
}

// The staged fat tree homes its switch state on lane 0 as a sim.Stage:
// deliveries from every lane must queue on the wormhole routes exactly as
// they do on one scheduler, including contention between sources that now
// live on different lanes.
func TestShardedMachineFatTreeMatchesSingleScheduler(t *testing.T) {
	c := DefaultCosts()
	const n = 8
	run := func(m *Machine, drive func() (sim.Time, error)) []sim.Time {
		m.Tree = m.NewFatTree()
		ends := make([]sim.Time, n)
		for src := 0; src < n; src++ {
			src := src
			// Everyone converges on node 0's leaf group: the incast case
			// where down-link contention decides the timing.
			m.Nodes[src].Txn((src+1)%2, 512, false, sim.Func(func() {
				ends[src] = m.Nodes[(src+1)%2].S.Now()
			}))
		}
		if _, err := drive(); err != nil {
			t.Fatal(err)
		}
		return ends
	}
	s := sim.NewScheduler(1)
	want := run(NewMachine(s, n, c), s.Run)
	lanes := []int{0, 0, 1, 1, 2, 2, 3, 3}
	sh := sim.NewShard(1, 4, sim.Duration(c.WireLatency)/2)
	got := run(NewShardedMachine(sh, lanes, n, c), sh.Run)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery %d at %v sharded, %v single", i, got[i], want[i])
		}
		if want[i] == 0 {
			t.Fatalf("delivery %d never ran", i)
		}
	}
}

func TestShardedMachineRejectsFatTreeShortHop(t *testing.T) {
	c := DefaultCosts()
	// WireLatency satisfies the flat-wire bound but the tree's HopLatency
	// (WireLatency/2) does not: attaching the tree must panic.
	sh := sim.NewShard(1, 2, sim.Duration(c.WireLatency))
	m := NewShardedMachine(sh, []int{0, 1}, 2, c)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic attaching a fat tree with hop latency below lookahead")
		}
	}()
	m.Tree = m.NewFatTree()
}

func TestShardedMachineRejectsShortWire(t *testing.T) {
	c := DefaultCosts()
	sh := sim.NewShard(1, 2, sim.Duration(c.WireLatency)+time.Microsecond)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wire latency below lookahead")
		}
	}()
	NewShardedMachine(sh, []int{0, 1}, 2, c)
}

// countDelivery counts deliveries; one value is reused for every
// transaction.
type countDelivery int

func (c *countDelivery) Fire() { *c++ }

// txnEvent issues one Txn from its source node's lane context.
type txnEvent struct {
	src        *Node
	dst, n     int
	elanIssued bool
	h          sim.Handler
}

func (e *txnEvent) Fire() { e.src.Txn(e.dst, e.n, e.elanIssued, e.h) }

// A transaction with a reused Handler allocates nothing once the
// machine's record lists are warm, on one scheduler and across lanes.
func TestTxnAllocFree(t *testing.T) {
	c := DefaultCosts()
	for _, tc := range []struct {
		name  string
		build func() (*Machine, func() (sim.Time, error))
	}{
		{"single", func() (*Machine, func() (sim.Time, error)) {
			s := sim.NewScheduler(1)
			return NewMachine(s, 2, c), s.Run
		}},
		{"sharded", func() (*Machine, func() (sim.Time, error)) {
			sh := sim.NewShard(1, 2, c.WireLatency)
			return NewShardedMachine(sh, []int{0, 1}, 2, c), sh.Run
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, drive := tc.build()
			var got countDelivery
			sends := []*txnEvent{{m.Nodes[0], 1, 64, false, &got}, {m.Nodes[1], 0, 8, true, &got}}
			send := func() {
				for _, e := range sends {
					s := e.src.S
					s.AtH(s.Now(), e)
				}
				if _, err := drive(); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 16; i++ {
				send()
			}
			if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
				t.Fatalf("Txn allocates %.1f objects per transaction pair, want 0", allocs)
			}
			if want := countDelivery(2 * (16 + 101)); got != want {
				t.Fatalf("%d deliveries, want %d", got, want)
			}
		})
	}
}
