package meiko

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func TestFatTreeStages(t *testing.T) {
	cases := []struct{ nodes, stages int }{
		{2, 1}, {4, 1}, {5, 2}, {16, 2}, {17, 3}, {64, 3},
	}
	for _, c := range cases {
		s := sim.NewScheduler(1)
		m := NewMachine(s, c.nodes, DefaultCosts())
		ft := m.NewFatTree()
		if ft.Stages() != c.stages {
			t.Errorf("%d nodes: %d stages, want %d", c.nodes, ft.Stages(), c.stages)
		}
	}
}

func TestFatTreeClimb(t *testing.T) {
	s := sim.NewScheduler(1)
	m := NewMachine(s, 64, DefaultCosts())
	ft := m.NewFatTree()
	cases := []struct{ a, b, hops int }{
		{0, 1, 1},  // same leaf group
		{0, 4, 2},  // adjacent group
		{0, 15, 2}, // same 16-subtree
		{0, 16, 3}, // crosses the top
		{63, 62, 1},
	}
	for _, c := range cases {
		if got := ft.climb(c.a, c.b); got != c.hops {
			t.Errorf("climb(%d,%d) = %d, want %d", c.a, c.b, got, c.hops)
		}
	}
}

// Incast traffic to one destination region serializes on the shared
// down-links; the same traffic to distinct subtrees does not.
func TestFatTreeIncastContention(t *testing.T) {
	run := func(dsts []int) sim.Time {
		s := sim.NewScheduler(1)
		s.MaxEvents = 1_000_000
		m := NewMachine(s, 64, DefaultCosts())
		m.Tree = m.NewFatTree()
		var last sim.Time
		s.At(0, func() {
			for i, d := range dsts {
				src := 32 + i*4 // distinct source subtrees
				m.Nodes[src].DMA(d, 100_000, nil, func() {
					if s.Now() > last {
						last = s.Now()
					}
				})
			}
		})
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return last
	}
	incast := run([]int{0, 0, 0, 0})  // hammering node 0
	spread := run([]int{0, 4, 8, 12}) // distinct leaf groups (same 16-subtree)
	wide := run([]int{0, 16, 4, 20})  // split across top-level subtrees
	if incast < spread || spread < wide {
		t.Fatalf("contention ordering wrong: incast %v, spread %v, wide %v", incast, spread, wide)
	}
	// Store-and-forward staging means even uncontended flows pay per-stage
	// serialization; incast must still clearly exceed spread traffic.
	if float64(incast) < 1.5*float64(wide) {
		t.Fatalf("incast (%v) should serialize well beyond wide traffic (%v)", incast, wide)
	}
}

// Per-pair FIFO order survives tree routing (deterministic single path).
func TestFatTreeOrderPreserved(t *testing.T) {
	s := sim.NewScheduler(1)
	s.MaxEvents = 1_000_000
	m := NewMachine(s, 16, DefaultCosts())
	m.Tree = m.NewFatTree()
	var order []int
	s.At(0, func() {
		for i := 0; i < 6; i++ {
			i := i
			m.Nodes[3].Txn(12, 50, false, sim.Func(func() { order = append(order, i) }))
		}
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
}

// The flat and tree models agree for an uncontended transfer, modulo the
// staged serialization and hop latencies.
func TestFatTreeUncontendedClose(t *testing.T) {
	measure := func(tree bool) sim.Time {
		s := sim.NewScheduler(1)
		m := NewMachine(s, 16, DefaultCosts())
		if tree {
			m.Tree = m.NewFatTree()
		}
		var done sim.Time
		s.At(0, func() {
			m.Nodes[0].DMA(15, 10_000, nil, func() { done = s.Now() })
		})
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return done
	}
	flat, tree := measure(false), measure(true)
	if tree < flat {
		t.Fatalf("tree (%v) cheaper than flat (%v)?", tree, flat)
	}
	if tree > 4*flat {
		t.Fatalf("tree (%v) unreasonably above flat (%v) without contention", tree, flat)
	}
}

// A faulted upper-stage plane degrades latency instead of killing the
// route: the transfer detours through a neighbouring plane during the
// outage window and the primary route comes back afterwards.
func TestFatTreeFaultDegradesAndRecovers(t *testing.T) {
	send := func(faults []TreeFault, at sim.Duration) sim.Time {
		s := sim.NewScheduler(1)
		m := NewMachine(s, 64, DefaultCosts())
		m.Tree = m.NewFatTree()
		if err := m.Tree.SetFaults(faults); err != nil {
			t.Fatal(err)
		}
		var done sim.Time
		s.At(sim.Time(at), func() {
			m.Nodes[0].DMA(20, 10_000, nil, func() { done = s.Now() })
		})
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return done - sim.Time(at)
	}
	// Node 0 -> 20 crosses the top (3 hops); fault every plane node 0's
	// hash could pick at stages 1 and 2 during [0, 1ms) so the route must
	// detour whatever the lane hash lands on.
	var faults []TreeFault
	for stage := 1; stage <= 2; stage++ {
		for lane := 0; lane < pow(4, stage); lane++ {
			faults = append(faults, TreeFault{Stage: stage, Lane: lane, From: 0, Until: 999 * time.Microsecond})
		}
	}
	healthy := send(nil, 0)
	during := send(faults, 0)
	after := send(faults, time.Millisecond)
	if during <= healthy {
		t.Fatalf("faulted route (%v) not slower than healthy (%v)", during, healthy)
	}
	if after != healthy {
		t.Fatalf("post-window route %v, want healthy %v", after, healthy)
	}
	// Full-plane outage degrades, never drops: the delivery above completed.
}

// The detour is deterministic: identical schedules give bit-identical
// delivery times.
func TestFatTreeFaultDeterministic(t *testing.T) {
	run := func() []sim.Time {
		s := sim.NewScheduler(7)
		m := NewMachine(s, 64, DefaultCosts())
		m.Tree = m.NewFatTree()
		if err := m.Tree.SetFaults([]TreeFault{{Stage: 2, Lane: 5, From: 0, Until: 500 * time.Microsecond}}); err != nil {
			t.Fatal(err)
		}
		var times []sim.Time
		s.At(0, func() {
			for i := 0; i < 8; i++ {
				m.Nodes[i*7%64].DMA((i*13+16)%64, 5_000, nil, func() {
					times = append(times, s.Now())
				})
			}
		})
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return times
	}
	a, b := run(), run()
	if len(a) != 8 || len(a) != len(b) {
		t.Fatalf("deliveries: %d vs %d, want 8", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at delivery %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestTreeFaultValidation(t *testing.T) {
	s := sim.NewScheduler(1)
	m := NewMachine(s, 64, DefaultCosts())
	ft := m.NewFatTree() // 3 stages
	for _, bad := range [][]TreeFault{
		{{Stage: 0, Lane: 0}}, // leaf links have no redundancy
		{{Stage: 3, Lane: 0}}, // beyond the tree
		{{Stage: 1, Lane: 4}}, // stage 1 has 4 planes
		{{Stage: 1, Lane: 0, From: time.Millisecond, Until: time.Microsecond}}, // empty window
	} {
		if err := ft.SetFaults(bad); err == nil {
			t.Errorf("SetFaults(%+v) accepted", bad)
		}
	}
	if err := ft.SetFaults([]TreeFault{{Stage: 2, Lane: 15, From: 0, Until: time.Second}}); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
}

func TestParseTreeFaults(t *testing.T) {
	got, err := ParseTreeFaults(" 1:0@5ms-20ms ; 2:3@1ms ")
	if err != nil {
		t.Fatal(err)
	}
	want := []TreeFault{
		{Stage: 1, Lane: 0, From: 5 * time.Millisecond, Until: 20 * time.Millisecond},
		{Stage: 2, Lane: 3, From: time.Millisecond},
	}
	if len(got) != len(want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	for _, bad := range []string{"1@5ms", "0:0@5ms", "1:-1@5ms", "1:0@bogus", "1:0@5ms-1ms"} {
		if _, err := ParseTreeFaults(bad); err == nil {
			t.Errorf("ParseTreeFaults(%q) accepted", bad)
		}
	}
	if out, err := ParseTreeFaults("  "); err != nil || out != nil {
		t.Errorf("blank spec: %v, %v", out, err)
	}
}

// MPI-level runs remain correct over the tree (used via platform flag).
func TestTportOverFatTree(t *testing.T) {
	s := sim.NewScheduler(1)
	s.MaxEvents = 10_000_000
	m := NewMachine(s, 16, DefaultCosts())
	m.Tree = m.NewFatTree()
	t0 := m.NewTport(m.Nodes[0])
	t9 := m.NewTport(m.Nodes[9])
	data := make([]byte, 5000)
	for i := range data {
		data[i] = byte(i)
	}
	got := make([]byte, 5000)
	s.Spawn("tx", func(p *sim.Proc) { t0.Send(p, 9, 1, data) })
	s.Spawn("rx", func(p *sim.Proc) { t9.Recv(p, 1, ^uint64(0), got) })
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != byte(i) {
			t.Fatalf("corrupt at %d", i)
		}
	}
}
