package atm

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// The sharded ATM fabric is the same cost model on a different kernel:
// deliveries — including downlink contention at a shared destination port
// from sources on different lanes — must land at exactly the
// single-scheduler times.
func TestShardedATMNetMatchesSingleScheduler(t *testing.T) {
	c := DefaultCosts()
	run := func(a *ATMNet, drive func() (sim.Time, error)) []sim.Time {
		var ends []sim.Time
		// Two hosts blast the same destination port; a third packet rides
		// the opposite direction.
		a.Deliver(0, 2, 1024, DeliverOpts{}, sim.Func(func() { ends = append(ends, a.schedOf(2).Now()) }))
		a.Deliver(1, 2, 512, DeliverOpts{}, sim.Func(func() { ends = append(ends, a.schedOf(2).Now()) }))
		a.Deliver(2, 0, 256, DeliverOpts{AAL34: true}, sim.Func(func() { ends = append(ends, a.schedOf(0).Now()) }))
		if _, err := drive(); err != nil {
			t.Fatal(err)
		}
		return ends
	}
	s := sim.NewScheduler(1)
	want := run(NewATMNet(s, 3, c), s.Run)
	sh := sim.NewShard(1, 3, c.SwitchDelay)
	got := run(NewShardedATMNet(sh, []int{0, 1, 2}, c), sh.Run)
	if len(want) != 3 || len(got) != 3 {
		t.Fatalf("deliveries: single %v, sharded %v", want, got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery %d at %v sharded, %v single (all: %v vs %v)", i, got[i], want[i], got, want)
		}
	}
}

// The shared Ethernet segment homes on lane 0 as a sim.Stage: frames from
// every lane must serialize on the one wire in stamp order, landing at
// exactly the single-scheduler times — including back-to-back contention
// where the queueing arithmetic, not just the latency, decides.
func TestShardedEthernetMatchesSingleScheduler(t *testing.T) {
	c := DefaultCosts()
	run := func(e *Ethernet, drive func() (sim.Time, error)) []sim.Time {
		ends := make([]sim.Time, 4)
		// All hosts contend for the wire at t=0, then host 0 sends again.
		e.Deliver(0, 2, 700, DeliverOpts{}, sim.Func(func() {
			ends[0] = e.schedOf(2).Now()
			e.Deliver(2, 1, 40, DeliverOpts{}, sim.Func(func() { ends[3] = e.schedOf(1).Now() }))
		}))
		e.Deliver(1, 2, 300, DeliverOpts{}, sim.Func(func() { ends[1] = e.schedOf(2).Now() }))
		e.Deliver(2, 0, 1, DeliverOpts{}, sim.Func(func() { ends[2] = e.schedOf(0).Now() }))
		if _, err := drive(); err != nil {
			t.Fatal(err)
		}
		return ends
	}
	s := sim.NewScheduler(1)
	want := run(NewEthernet(s, c), s.Run)
	sh := sim.NewShard(1, 3, c.SwitchDelay)
	got := run(NewShardedEthernet(sh, []int{0, 1, 2}, c), sh.Run)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery %d at %v sharded, %v single (all: %v vs %v)", i, got[i], want[i], got, want)
		}
		if want[i] == 0 {
			t.Fatalf("delivery %d never ran", i)
		}
	}
}

func TestShardedEthernetRejectsLongLookahead(t *testing.T) {
	c := DefaultCosts()
	// A lookahead above the propagation+driver tail must be rejected.
	sh := sim.NewShard(1, 2, c.EthPropDelay+c.DriverEthPerFrame+time.Microsecond)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for lookahead above the delivery tail")
		}
	}()
	NewShardedEthernet(sh, []int{0, 1}, c)
}

func TestShardedATMNetRejectsShortSwitchDelay(t *testing.T) {
	c := DefaultCosts()
	sh := sim.NewShard(1, 2, c.SwitchDelay+time.Microsecond)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for switch delay below lookahead")
		}
	}()
	NewShardedATMNet(sh, []int{0, 1}, c)
}

// countDelivery counts deliveries; one value is reused for every packet.
type countDelivery int

func (c *countDelivery) Fire() { *c++ }

// sendEvent issues one Deliver from its source host's lane context.
type sendEvent struct {
	m        Medium
	src, dst int
	n        int
	h        sim.Handler
}

func (e *sendEvent) Fire() { e.m.Deliver(e.src, e.dst, e.n, DeliverOpts{}, e.h) }

// Both media carry a packet without allocating once their record pools are
// warm, on the single scheduler and on a shard (where the packet crosses
// lanes, and the Ethernet frame detours through the home lane).
func TestMediaDeliverAllocFree(t *testing.T) {
	c := DefaultCosts()
	type world struct {
		m       Medium
		schedOf func(int) *sim.Scheduler
		drive   func() (sim.Time, error)
	}
	for _, tc := range []struct {
		name  string
		build func() world
	}{
		{"atm", func() world {
			s := sim.NewScheduler(1)
			a := NewATMNet(s, 2, c)
			return world{a, a.schedOf, s.Run}
		}},
		{"atm-sharded", func() world {
			sh := sim.NewShard(1, 2, c.SwitchDelay)
			a := NewShardedATMNet(sh, []int{0, 1}, c)
			return world{a, a.schedOf, sh.Run}
		}},
		{"eth", func() world {
			s := sim.NewScheduler(1)
			e := NewEthernet(s, c)
			return world{e, e.schedOf, s.Run}
		}},
		{"eth-sharded", func() world {
			sh := sim.NewShard(1, 2, c.SwitchDelay)
			e := NewShardedEthernet(sh, []int{0, 1}, c)
			return world{e, e.schedOf, sh.Run}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := tc.build()
			var got countDelivery
			sends := []*sendEvent{{w.m, 0, 1, 1000, &got}, {w.m, 1, 0, 40, &got}}
			send := func() {
				for _, e := range sends {
					s := w.schedOf(e.src)
					s.AtH(s.Now(), e)
				}
				if _, err := w.drive(); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 16; i++ {
				send()
			}
			if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
				t.Fatalf("Deliver allocates %.1f objects per packet pair, want 0", allocs)
			}
			if want := countDelivery(2 * (16 + 101)); got != want {
				t.Fatalf("%d deliveries, want %d", got, want)
			}
		})
	}
}
