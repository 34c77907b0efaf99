package sim

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
)

// Shard is the control plane of the sharded kernel: a set of per-node
// data-plane lanes (each a full Scheduler with its own event queue, proc
// set, and RNG stream) synchronized by a conservative lookahead barrier.
//
// Execution proceeds in epochs. Each epoch the control plane finds the
// earliest pending event time T0 across lanes and sets the horizon
// H = T0 + lookahead; every lane then executes its events with t < H
// independently — sequentially or on parallel goroutines, the results are
// identical. Cross-lane effects are staged through Route into per-lane
// outboxes and merged at the epoch barrier. The merge is the determinism
// linchpin: envelopes are ordered by (t, srcLane, srcSeq) — the lane id
// breaks (time, seq) ties — and destination-local sequence numbers are
// assigned in that canonical order, so the run is bit-identical regardless
// of how lane execution interleaved.
//
// Safety requires every cross-lane delivery to land at or beyond the
// horizon of the epoch that sent it. Route enforces t >= H, which holds by
// construction whenever the model's minimum cross-lane latency is at least
// the shard's lookahead: a sender executing at now < H schedules delivery
// at now + δ with δ >= lookahead, and now >= T0 gives
// now + δ >= T0 + lookahead = H.
type Shard struct {
	lanes     []*Scheduler
	lookahead Time

	// Parallel selects pinned-worker epoch execution: min(GOMAXPROCS,
	// lanes) persistent workers, each owning a contiguous block of lanes,
	// woken once per epoch with the horizon and joined at the barrier. Off
	// by default: the sequential path is the determinism oracle for the
	// parallel one, and on a single core the worker pool degenerates to one
	// worker with only a channel handoff per epoch of overhead.
	Parallel bool

	// Limits guard against runaway models; zero means no limit. MaxEvents
	// bounds the total across lanes (checked at epoch granularity, and
	// per-lane within an epoch so a same-instant livelock still terminates).
	MaxEvents uint64
	MaxTime   Time

	scratch []*xmsg // merge staging, reused across epochs
	stats   ShardStats

	// Pinned-worker pool (Parallel mode). Workers are started lazily by Run
	// and torn down on every return path; each owns lanes [lo, hi) and
	// touches nothing else during an epoch, so lane state needs no locks —
	// the work channel send and barrier wait provide the happens-before
	// edges for the control plane's reads between epochs.
	work    []chan Time
	barrier sync.WaitGroup
}

// xmsg is a pooled cross-lane envelope: an event staged in a lane outbox
// until the epoch barrier merges it into the destination lane.
type xmsg struct {
	t       Time
	srcLane int
	srcSeq  uint64
	dst     int
	h       Handler
	next    *xmsg // freelist link while recycled
}

// ShardStats counts control-plane activity for Acct/trace reporting.
type ShardStats struct {
	Lanes            int
	Epochs           uint64   // lookahead windows executed
	Stalls           uint64   // lane-epochs that ran zero events
	Routed           uint64   // cross-lane envelopes merged
	MailboxHighWater int      // most envelopes staged at one barrier
	LaneEvents       []uint64 // events executed per lane
	Events           uint64   // total events across lanes
}

// NewShard builds a shard of n lanes with the given lookahead bound, which
// must be positive (it is the epoch width, and the model's minimum
// cross-lane latency must be at least this). Lane i's RNG stream is seeded
// seed+i so lanes draw independently and deterministically.
func NewShard(seed int64, n int, lookahead Duration) *Shard {
	if n < 1 {
		panic("sim: shard needs at least one lane")
	}
	if lookahead <= 0 {
		panic("sim: shard lookahead must be positive")
	}
	sh := &Shard{lanes: make([]*Scheduler, n), lookahead: Time(lookahead)}
	for i := range sh.lanes {
		ln := NewScheduler(seed + int64(i))
		ln.shard = sh
		ln.lane = i
		sh.lanes[i] = ln
	}
	return sh
}

// Lanes reports the number of lanes.
func (sh *Shard) Lanes() int { return len(sh.lanes) }

// Lane reports lane i's scheduler, on which procs are spawned and media
// built. Everything reachable from a lane's procs must be lane-local;
// cross-lane effects go through Route.
func (sh *Shard) Lane(i int) *Scheduler { return sh.lanes[i] }

// Lookahead reports the shard's lookahead bound. Media use it to validate
// that their cross-lane latencies qualify.
func (sh *Shard) Lookahead() Duration { return Duration(sh.lookahead) }

// Stats reports control-plane counters for the run so far.
func (sh *Shard) Stats() ShardStats {
	st := sh.stats
	st.Lanes = len(sh.lanes)
	st.LaneEvents = make([]uint64, len(sh.lanes))
	for i, ln := range sh.lanes {
		st.LaneEvents[i] = ln.nEvents
		st.Events += ln.nEvents
	}
	return st
}

// Events reports the total events executed across lanes.
func (sh *Shard) Events() uint64 {
	var n uint64
	for _, ln := range sh.lanes {
		n += ln.nEvents
	}
	return n
}

// Now reports the shard's virtual time: the maximum across lanes (lanes
// whose queues ran dry lag until a merged event advances them).
func (sh *Shard) Now() Time {
	var t Time
	for _, ln := range sh.lanes {
		if ln.now > t {
			t = ln.now
		}
	}
	return t
}

// Route schedules fn at time t on lane dstLane. Called from the sending
// lane's context (proc body or event callback). Same-lane routes — and any
// route on a standalone scheduler — degrade to At. Cross-lane routes are
// staged in the sender's outbox and merged at the epoch barrier; t must be
// at or beyond the current horizon (guaranteed when the modeled latency is
// >= the shard lookahead), otherwise Route panics — delivering into the
// current window would break the conservative synchronization contract.
func (s *Scheduler) Route(dstLane int, t Time, fn func()) { s.RouteH(dstLane, t, Func(fn)) }

// RouteH is Route for a Handler: h.Fire runs at time t on lane dstLane.
// A pooled record routed this way belongs to the destination lane from
// the call on; the sender must not touch it again.
func (s *Scheduler) RouteH(dstLane int, t Time, h Handler) {
	sh := s.shard
	if sh == nil || dstLane == s.lane {
		s.schedule(t, h, nil)
		return
	}
	if t < s.window {
		panic(fmt.Sprintf("sim: lookahead violation: lane %d routing to lane %d at %v, inside horizon %v (cross-lane latency below shard lookahead %v)",
			s.lane, dstLane, t, s.window, Duration(sh.lookahead)))
	}
	s.xseq++
	m := s.allocX()
	m.t, m.srcLane, m.srcSeq, m.dst, m.h = t, s.lane, s.xseq, dstLane, h
	s.outbox = append(s.outbox, m)
}

// RouteAfter schedules fn on lane dstLane, d from now.
func (s *Scheduler) RouteAfter(dstLane int, d Duration, fn func()) {
	s.Route(dstLane, s.now+Time(d), fn)
}

func (s *Scheduler) allocX() *xmsg {
	m := s.xfree
	if m == nil {
		return &xmsg{}
	}
	s.xfree = m.next
	m.next = nil
	return m
}

func (s *Scheduler) freeX(m *xmsg) {
	m.h = nil
	m.next = s.xfree
	s.xfree = m
}

// runWindow executes the lane's events strictly before horizon h, stopping
// early if the lane alone exceeds maxEv events (a per-lane bound that keeps
// a same-instant livelock inside one window from running away before the
// control plane can apply the global limit). It reports how many events ran.
func (s *Scheduler) runWindow(h Time, maxEv uint64) uint64 {
	s.window = h
	var n uint64
	for len(s.events) > 0 && s.events[0].t < h {
		// Strictly-greater mirrors the global check: a lane halted here has
		// already pushed the global total over the limit, so Run cannot spin
		// on a capped lane without returning the LimitError.
		if maxEv != 0 && s.nEvents > maxEv {
			break
		}
		s.runEvent(s.events.pop())
		n++
	}
	return n
}

// nextTime reports the earliest pending event time across lanes.
func (sh *Shard) nextTime() (Time, bool) {
	var t0 Time
	any := false
	for _, ln := range sh.lanes {
		if len(ln.events) == 0 {
			continue
		}
		if !any || ln.events[0].t < t0 {
			t0 = ln.events[0].t
		}
		any = true
	}
	return t0, any
}

// merge drains every lane outbox into the destination lanes in canonical
// (t, srcLane, srcSeq) order, assigning destination-local sequence numbers
// in that order so downstream execution is bit-identical however the lanes
// were executed. Runs in control-plane context (the barrier), so touching
// every lane is safe.
func (sh *Shard) merge() {
	sc := sh.scratch[:0]
	for _, ln := range sh.lanes {
		sc = append(sc, ln.outbox...)
		ln.outbox = ln.outbox[:0]
	}
	if len(sc) > sh.stats.MailboxHighWater {
		sh.stats.MailboxHighWater = len(sc)
	}
	sh.stats.Routed += uint64(len(sc))
	slices.SortFunc(sc, func(a, b *xmsg) int {
		if a.t != b.t {
			return cmp.Compare(a.t, b.t)
		}
		if a.srcLane != b.srcLane {
			return cmp.Compare(a.srcLane, b.srcLane)
		}
		return cmp.Compare(a.srcSeq, b.srcSeq)
	})
	for _, m := range sc {
		sh.lanes[m.dst].schedule(m.t, m.h, nil)
		sh.lanes[m.srcLane].freeX(m)
	}
	sh.scratch = sc[:0]
}

// startWorkers spins up the pinned worker pool: each worker owns a
// contiguous block of lanes and loops epoch-to-epoch on its work channel.
// MaxEvents is read by workers and must not change while they run.
func (sh *Shard) startWorkers() {
	w := runtime.GOMAXPROCS(0)
	if w > len(sh.lanes) {
		w = len(sh.lanes)
	}
	sh.work = make([]chan Time, w)
	for i := range sh.work {
		ch := make(chan Time, 1)
		sh.work[i] = ch
		block := sh.lanes[i*len(sh.lanes)/w : (i+1)*len(sh.lanes)/w]
		go func() {
			for h := range ch {
				for _, ln := range block {
					ln.runWindow(h, sh.MaxEvents)
				}
				sh.barrier.Done()
			}
		}()
	}
}

// stopWorkers tears the pool down (idempotent).
func (sh *Shard) stopWorkers() {
	for _, ch := range sh.work {
		close(ch)
	}
	sh.work = nil
}

// Run drives all lanes to completion under the epoch/lookahead barrier and
// returns the final virtual time. Deadlock (all queues and outboxes
// drained with procs still parked) and limit overruns surface exactly as
// on the single-lane kernel, as *DeadlockError / *LimitError.
func (sh *Shard) Run() (Time, error) {
	if sh.Parallel && len(sh.lanes) > 1 && sh.work == nil {
		sh.startWorkers()
		defer sh.stopWorkers()
	}
	for {
		t0, any := sh.nextTime()
		if !any {
			var names []string
			for _, ln := range sh.lanes {
				for p := range ln.procs {
					names = append(names, p.name)
				}
			}
			if len(names) != 0 {
				sort.Strings(names)
				return sh.Now(), &DeadlockError{At: sh.Now(), Parked: names}
			}
			return sh.Now(), nil
		}
		if sh.MaxTime != 0 && t0 > sh.MaxTime {
			return t0, &LimitError{At: t0, Events: sh.Events(), What: "time"}
		}
		h := t0 + sh.lookahead
		sh.stats.Epochs++
		if sh.work != nil {
			// Stalls are counted by the control plane before the workers
			// wake (same predicate runWindow uses), so the counters stay
			// off the worker hot path.
			for _, ln := range sh.lanes {
				if len(ln.events) == 0 || ln.events[0].t >= h {
					sh.stats.Stalls++
				}
			}
			sh.barrier.Add(len(sh.work))
			for _, ch := range sh.work {
				ch <- h
			}
			sh.barrier.Wait()
		} else {
			for _, ln := range sh.lanes {
				if ln.runWindow(h, sh.MaxEvents) == 0 {
					sh.stats.Stalls++
				}
			}
		}
		sh.merge()
		if sh.MaxEvents != 0 && sh.Events() > sh.MaxEvents {
			return sh.Now(), &LimitError{At: sh.Now(), Events: sh.Events(), What: "event"}
		}
	}
}

// Shutdown terminates every lane's parked procs (linear per lane; see
// Scheduler.Shutdown). Call after Run returns an error.
func (sh *Shard) Shutdown() {
	for _, ln := range sh.lanes {
		ln.Shutdown()
	}
}
