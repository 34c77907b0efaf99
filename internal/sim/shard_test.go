package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"
)

// --- basic lane mechanics ---

func TestShardSingleLaneMatchesScheduler(t *testing.T) {
	// The same two-proc program on a standalone scheduler and on a 1-lane
	// shard (driven by the epoch loop) must produce identical timelines.
	var traces [2][]string
	run := func(idx int, s *Scheduler, drive func() (Time, error)) {
		log := func(p *Proc, what string) {
			traces[idx] = append(traces[idx], fmt.Sprintf("%s@%d:%s", p.Name(), p.Now(), what))
		}
		s.Spawn("a", func(p *Proc) {
			log(p, "start")
			p.Advance(10)
			log(p, "mid")
			p.Advance(20)
			log(p, "end")
		})
		s.Spawn("b", func(p *Proc) {
			log(p, "start")
			p.Advance(15)
			log(p, "end")
		})
		if _, err := drive(); err != nil {
			t.Fatal(err)
		}
	}
	s := NewScheduler(1)
	run(0, s, s.Run)
	sh := NewShard(1, 1, time.Microsecond)
	run(1, sh.Lane(0), sh.Run)
	if got, want := strings.Join(traces[1], " "), strings.Join(traces[0], " "); got != want {
		t.Fatalf("lane trace %q != scheduler trace %q", got, want)
	}
}

func TestShardLaneYieldOrdersSameInstantEvents(t *testing.T) {
	// Same-instant Yield/event ordering must hold on lanes too: an event
	// queued before the Yield runs first.
	sh := NewShard(1, 2, time.Microsecond)
	ln := sh.Lane(1)
	var order []string
	ln.Spawn("p", func(p *Proc) {
		ln.At(p.Now(), func() { order = append(order, "event") })
		p.Yield()
		order = append(order, "proc")
	})
	if _, err := sh.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "event" || order[1] != "proc" {
		t.Fatalf("order = %v", order)
	}
}

func TestShardRouteCrossLane(t *testing.T) {
	sh := NewShard(1, 2, 100*time.Nanosecond)
	var got Time
	var gotLane int
	sh.Lane(0).Spawn("src", func(p *Proc) {
		p.Advance(40)
		p.s.RouteAfter(1, 100, func() {
			got = sh.Lane(1).Now()
			gotLane = 1
		})
		p.Advance(10)
	})
	if _, err := sh.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 140 || gotLane != 1 {
		t.Fatalf("delivery at %v on lane %d, want 140 on lane 1", got, gotLane)
	}
	st := sh.Stats()
	if st.Routed != 1 || st.MailboxHighWater != 1 {
		t.Fatalf("stats = %+v, want Routed=1 HighWater=1", st)
	}
}

func TestShardRouteSameLaneIsLocal(t *testing.T) {
	sh := NewShard(1, 2, 100*time.Nanosecond)
	fired := false
	// Same-lane routes bypass the mailbox entirely, so sub-lookahead
	// delays are fine (node-local hops are not bounded by the lookahead).
	sh.Lane(0).At(0, func() {
		sh.Lane(0).RouteAfter(0, 5, func() { fired = true })
	})
	if _, err := sh.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("same-lane route not delivered")
	}
	if sh.Stats().Routed != 0 {
		t.Fatalf("same-lane route counted as cross-lane: %+v", sh.Stats())
	}
}

func TestStandaloneRouteDegradesToAt(t *testing.T) {
	s := NewScheduler(1)
	fired := Time(-1)
	s.At(0, func() { s.RouteAfter(7, 10, func() { fired = s.Now() }) })
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 10 {
		t.Fatalf("fired = %v, want 10", fired)
	}
}

func TestShardLookaheadViolationPanics(t *testing.T) {
	sh := NewShard(1, 2, 100*time.Nanosecond)
	sh.Lane(0).At(0, func() {
		sh.Lane(0).RouteAfter(1, 10, func() {}) // below the 100ns lookahead
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected lookahead-violation panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "lookahead violation") {
			t.Fatalf("panic = %v", r)
		}
	}()
	sh.Run()
}

// --- limits and teardown ---

func TestShardMaxEventsLimit(t *testing.T) {
	sh := NewShard(1, 2, time.Microsecond)
	sh.MaxEvents = 100
	var loop func()
	ln := sh.Lane(0)
	loop = func() { ln.After(1, loop) }
	ln.At(0, loop)
	_, err := sh.Run()
	var le *LimitError
	if !errors.As(err, &le) || le.What != "event" {
		t.Fatalf("err = %v, want event LimitError", err)
	}
}

func TestShardMaxTimeLimit(t *testing.T) {
	sh := NewShard(1, 2, time.Microsecond)
	sh.MaxTime = 50_000
	var loop func()
	ln := sh.Lane(1)
	loop = func() { ln.After(10_000, loop) }
	ln.At(0, loop)
	_, err := sh.Run()
	var le *LimitError
	if !errors.As(err, &le) || le.What != "time" {
		t.Fatalf("err = %v, want time LimitError", err)
	}
}

func TestShardDeadlockDetected(t *testing.T) {
	sh := NewShard(1, 2, time.Microsecond)
	for i := 0; i < 2; i++ {
		ln := sh.Lane(i)
		c := NewCond(ln)
		ln.Spawn(fmt.Sprintf("stuck%d", i), func(p *Proc) { c.Wait(p) })
	}
	_, err := sh.Run()
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(de.Parked) != 2 || de.Parked[0] != "stuck0" || de.Parked[1] != "stuck1" {
		t.Fatalf("parked = %v", de.Parked)
	}
	sh.Shutdown()
}

func TestShardShutdownReleasesParkedProcs(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		sh := NewShard(1, 4, time.Microsecond)
		for l := 0; l < 4; l++ {
			ln := sh.Lane(l)
			c := NewCond(ln)
			for j := 0; j < 10; j++ {
				ln.Spawn(fmt.Sprintf("stuck%d.%d", l, j), func(p *Proc) { c.Wait(p) })
			}
		}
		if _, err := sh.Run(); err == nil {
			t.Fatal("expected deadlock")
		}
		sh.Shutdown()
	}
	for i := 0; i < 100 && runtime.NumGoroutine() > before+5; i++ {
		runtime.Gosched()
	}
	if g := runtime.NumGoroutine(); g > before+5 {
		t.Fatalf("goroutines leaked: %d before, %d after", before, g)
	}
}

// Procs that were spawned but never dispatched (the run hit a limit first)
// must be reaped by Shutdown without their bodies ever running — on both
// kernels.
func TestShutdownNeverDispatchedProcRunsNoUserCode(t *testing.T) {
	t.Run("scheduler", func(t *testing.T) {
		before := runtime.NumGoroutine()
		s := NewScheduler(1)
		s.MaxEvents = 2
		for i := 0; i < 3; i++ {
			s.At(0, func() {})
		}
		ran := false
		s.Spawn("late", func(p *Proc) { ran = true })
		if _, err := s.Run(); err == nil {
			t.Fatal("expected limit error")
		}
		s.Shutdown()
		if ran {
			t.Fatal("never-dispatched proc body ran during Shutdown")
		}
		for i := 0; i < 100 && runtime.NumGoroutine() > before; i++ {
			runtime.Gosched()
		}
		if g := runtime.NumGoroutine(); g > before {
			t.Fatalf("goroutines leaked: %d before, %d after", before, g)
		}
	})
	t.Run("shard", func(t *testing.T) {
		sh := NewShard(1, 2, time.Microsecond)
		sh.MaxEvents = 2
		// Three same-lane events ahead of the spawn push the lane over its
		// budget before the spawn's dispatch event can run.
		for i := 0; i < 3; i++ {
			sh.Lane(1).At(0, func() {})
		}
		ran := false
		sh.Lane(1).Spawn("late", func(p *Proc) { ran = true })
		if _, err := sh.Run(); err == nil {
			t.Fatal("expected limit error")
		}
		sh.Shutdown()
		if ran {
			t.Fatal("never-dispatched lane proc body ran during Shutdown")
		}
	})
}

// --- allocation-free scheduling ---

// Event scheduling must be allocation-free in steady state: after pool
// warmup, Advance (schedule + coroutine dispatch), FIFO reservations and
// Handler events — local (AtH) and cross-lane (RouteH) — allocate nothing,
// on both kernels.
func TestLaneSchedulingAllocFree(t *testing.T) {
	measure := func(s *Scheduler, dstLane int, drive func() (Time, error)) uint64 {
		f := NewFIFO(s, "link")
		var h countHandler
		step := func(p *Proc) {
			p.Advance(10)
			f.UseAsync(1, nil)
			s.AtH(s.Now()+5, &h)
			s.RouteH(dstLane, s.Now()+Time(time.Microsecond), &h)
		}
		var delta uint64
		s.Spawn("hot", func(p *Proc) {
			for i := 0; i < 1000; i++ { // warm the event pool and heap
				step(p)
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 0; i < 5000; i++ {
				step(p)
			}
			runtime.ReadMemStats(&m1)
			delta = m1.Mallocs - m0.Mallocs
		})
		if _, err := drive(); err != nil {
			t.Fatal(err)
		}
		if h != 2*6000 {
			t.Fatalf("%d handler events fired, want %d", h, 2*6000)
		}
		return delta
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	t.Run("lane", func(t *testing.T) {
		sh := NewShard(1, 1, time.Microsecond)
		if d := measure(sh.Lane(0), 0, sh.Run); d != 0 {
			t.Fatalf("lane steady-state scheduling allocated %d times", d)
		}
	})
	t.Run("cross-lane", func(t *testing.T) {
		sh := NewShard(1, 2, time.Microsecond)
		if d := measure(sh.Lane(0), 1, sh.Run); d != 0 {
			t.Fatalf("cross-lane steady-state scheduling allocated %d times", d)
		}
	})
	t.Run("scheduler", func(t *testing.T) {
		s := NewScheduler(1)
		if d := measure(s, 0, s.Run); d != 0 {
			t.Fatalf("scheduler steady-state scheduling allocated %d times", d)
		}
	})
}

// countHandler counts its firings.
type countHandler int

func (h *countHandler) Fire() { *h++ }

// --- differential oracle ---

// diffMsg is one recorded delivery: virtual arrival time and payload.
type diffMsg struct {
	t       Time
	payload int
}

// runDiffProgram drives a fixed randomized messaging program — ranks
// advance by rank-seeded random spans and send lookahead-respecting
// messages round-robin while receivers block on conds until their quota
// arrives — and returns the per-channel delivery traces and per-rank
// finish times. The program is written once against the Route API and runs
// unchanged on the single-lane kernel (lanes=0) and on sharded kernels.
func runDiffProgram(t *testing.T, seed int64, ranks, lanes, msgs int, par bool) ([][]diffMsg, []Time) {
	t.Helper()
	const la = 100 * time.Nanosecond

	var scheds []*Scheduler
	var drive func() (Time, error)
	var shutdown func()
	laneOf := make([]int, ranks)
	if lanes == 0 {
		s := NewScheduler(seed)
		drive, shutdown = s.Run, s.Shutdown
		scheds = make([]*Scheduler, ranks)
		for i := range scheds {
			scheds[i] = s
		}
	} else {
		sh := NewShard(seed, lanes, la)
		sh.Parallel = par
		drive, shutdown = sh.Run, sh.Shutdown
		scheds = make([]*Scheduler, ranks)
		for i := range scheds {
			laneOf[i] = i % lanes
			scheds[i] = sh.Lane(laneOf[i])
		}
	}

	// Indexed [src*ranks+dst]: every channel (·,dst) is written only from
	// dst's lane (delivery context), and distinct channels occupy distinct
	// preallocated elements, so parallel lane execution stays race-free.
	traces := make([][]diffMsg, ranks*ranks)
	finish := make([]Time, ranks)
	conds := make([]*Cond, ranks)
	got := make([]int, ranks)
	for i := 0; i < ranks; i++ {
		conds[i] = NewCond(scheds[i])
	}
	for i := 0; i < ranks; i++ {
		i := i
		scheds[i].Spawn(fmt.Sprintf("send%d", i), func(p *Proc) {
			rng := rand.New(rand.NewSource(seed*1000 + int64(i)))
			for k := 0; k < msgs; k++ {
				p.Advance(Duration(rng.Intn(50)))
				dst := (i + k + 1) % ranks
				payload := i*1_000_000 + k
				delay := la + Duration(rng.Intn(100))
				p.s.RouteAfter(laneOf[dst], delay, func() {
					ch := i*ranks + dst
					traces[ch] = append(traces[ch], diffMsg{scheds[dst].Now(), payload})
					got[dst]++
					conds[dst].Signal()
				})
			}
		})
		scheds[i].Spawn(fmt.Sprintf("recv%d", i), func(p *Proc) {
			for got[i] < msgs {
				conds[i].Wait(p)
			}
			finish[i] = p.Now()
		})
	}
	if _, err := drive(); err != nil {
		shutdown()
		t.Fatalf("drive: %v", err)
	}
	return traces, finish
}

// The shard kernel is a refactoring of the single-lane kernel, not a new
// model: the same program must produce identical per-channel delivery
// traces and identical per-rank finish times on the single-lane oracle, on
// 1..N-lane shards run sequentially, and on shards run with parallel lane
// goroutines.
func TestShardDifferentialAgainstSingleLane(t *testing.T) {
	const ranks, msgs = 12, 8
	for _, seed := range []int64{3, 17, 91} {
		wantTr, wantFin := runDiffProgram(t, seed, ranks, 0, msgs, false)
		for _, lanes := range []int{1, 3, 4, 12} {
			gotTr, gotFin := runDiffProgram(t, seed, ranks, lanes, msgs, false)
			for ch := range wantTr {
				want, gotC := wantTr[ch], gotTr[ch]
				if len(gotC) != len(want) {
					t.Fatalf("seed %d lanes %d ch %d: %d msgs, want %d", seed, lanes, ch, len(gotC), len(want))
				}
				for j := range want {
					if gotC[j] != want[j] {
						t.Fatalf("seed %d lanes %d ch %d msg %d: %+v, want %+v", seed, lanes, ch, j, gotC[j], want[j])
					}
				}
			}
			for r := range wantFin {
				if gotFin[r] != wantFin[r] {
					t.Fatalf("seed %d lanes %d rank %d: finish %v, want %v", seed, lanes, r, gotFin[r], wantFin[r])
				}
			}
		}
	}
}

// Sequential and parallel lane execution must be bit-identical: same
// per-channel traces, same finish times, and the same control-plane
// counters (epochs, routed envelopes).
func TestShardParallelBitIdentical(t *testing.T) {
	const ranks, lanes, msgs = 8, 4, 6
	for _, seed := range []int64{5, 23} {
		seqTr, seqFin := runDiffProgram(t, seed, ranks, lanes, msgs, false)
		parTr, parFin := runDiffProgram(t, seed, ranks, lanes, msgs, true)
		for ch := range seqTr {
			want, gotC := seqTr[ch], parTr[ch]
			if len(gotC) != len(want) {
				t.Fatalf("seed %d ch %d: par %d msgs, seq %d", seed, ch, len(gotC), len(want))
			}
			for j := range want {
				if gotC[j] != want[j] {
					t.Fatalf("seed %d ch %d msg %d: par %+v, seq %+v", seed, ch, j, gotC[j], want[j])
				}
			}
		}
		for r := range seqFin {
			if parFin[r] != seqFin[r] {
				t.Fatalf("seed %d rank %d: par finish %v, seq %v", seed, r, parFin[r], seqFin[r])
			}
		}
	}
}

func TestShardStatsAccounting(t *testing.T) {
	const ranks, lanes, msgs = 8, 4, 6
	sh := NewShard(9, lanes, 100*time.Nanosecond)
	for i := 0; i < ranks; i++ {
		i := i
		ln := sh.Lane(i % lanes)
		ln.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for k := 0; k < msgs; k++ {
				p.Advance(30)
				p.s.RouteAfter((i%lanes+1)%lanes, 150, func() {})
			}
		})
	}
	if _, err := sh.Run(); err != nil {
		t.Fatal(err)
	}
	st := sh.Stats()
	if st.Lanes != lanes {
		t.Fatalf("Lanes = %d", st.Lanes)
	}
	if st.Routed != uint64(ranks*msgs) {
		t.Fatalf("Routed = %d, want %d", st.Routed, ranks*msgs)
	}
	if st.Epochs == 0 || st.MailboxHighWater == 0 {
		t.Fatalf("stats not counted: %+v", st)
	}
	var sum uint64
	for _, n := range st.LaneEvents {
		sum += n
	}
	if sum != st.Events || sum != sh.Events() {
		t.Fatalf("LaneEvents sum %d, Events %d, sh.Events %d", sum, st.Events, sh.Events())
	}
}

// --- benchmarks ---

// BenchmarkShardCrossLaneRoute measures the full cross-lane path: stage,
// barrier merge, and destination dispatch, ping-ponging between two lanes.
func BenchmarkShardCrossLaneRoute(b *testing.B) {
	sh := NewShard(1, 2, 100*time.Nanosecond)
	n := 0
	var ping func(lane int)
	ping = func(lane int) {
		n++
		if n < b.N {
			next := 1 - lane
			sh.Lane(lane).RouteAfter(next, 100, func() { ping(next) })
		}
	}
	sh.Lane(0).At(0, func() { ping(0) })
	b.ResetTimer()
	if _, err := sh.Run(); err != nil {
		b.Fatal(err)
	}
}
