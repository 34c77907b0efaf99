// Package sim provides a deterministic discrete-event simulation kernel.
//
// A simulation consists of a Scheduler owning a virtual clock and an event
// queue, plus any number of Procs (logical processes). Each Proc runs as a
// runtime coroutine (iter.Pull): the kernel enforces that at any instant
// exactly one of {the scheduler, one proc} executes, and control passes by
// a direct coroutine switch, which also provides the happens-before edges
// that make shared model state race-free without locks.
//
// Time is virtual: a Proc consumes time only by calling Advance (modeling
// computation or device occupancy) or by blocking on a Cond/FIFO until some
// event wakes it. Event ordering is (time, sequence), so runs are fully
// deterministic for a given program and seed.
//
// Two kernels share this machinery. The default single-lane kernel is the
// reference: one Scheduler, one event queue. The sharded kernel (see Shard)
// partitions a world into per-node lanes — each lane is a Scheduler in its
// own right — synchronized by a conservative lookahead barrier. Both hand
// off to procs the same way. Scheduling is allocation-free in both: events
// are pooled on an intrusive freelist and proc wakeups are typed events,
// not closures.
//
// An event's body is a Handler. At and Route take a closure and wrap it in
// the Func adapter, which costs nothing beyond the closure itself; hot
// paths that run one record through several steps (a packet crossing a
// NIC, a link and a switch) instead implement Handler on a pooled record
// and schedule it with AtH, RouteH and FIFO.UseAsyncH, so they allocate
// nothing per event.
// Freelist keeps such records per lane.
package sim

import (
	"fmt"
	"iter"
	"math/rand"
	"sort"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the run.
type Time int64

// Duration is a span of virtual time in nanoseconds. It converts directly
// to and from time.Duration.
type Duration = time.Duration

// Microseconds reports t as a floating-point count of microseconds,
// the unit used throughout the paper.
func (t Time) Microseconds() float64 { return float64(t) / 1e3 }

// Duration reports the span from the zero time to t.
func (t Time) Duration() Duration { return Duration(t) }

func (t Time) String() string { return fmt.Sprintf("%.3fus", t.Microseconds()) }

// Handler is an event body: Fire runs with the execution token held, in
// scheduler context.
type Handler interface{ Fire() }

// Func adapts a closure to Handler. A func value is pointer-shaped, so the
// conversion to Handler stores it directly and does not allocate.
type Func func()

// Fire implements Handler.
func (f Func) Fire() { f() }

// event is one queue entry: either a Handler (h) or a proc wakeup (proc).
// Proc wakeups carry the proc pointer instead of a closure so the Advance/
// Cond/FIFO hot paths schedule without allocating. Recycled events chain
// through next on the scheduler's freelist.
type event struct {
	t    Time
	seq  uint64
	h    Handler
	proc *Proc
	next *event // freelist link while recycled
}

// eventQueue is a binary min-heap over (t, seq), hand-rolled so push/pop
// stay monomorphic: no interface boxing, no container/heap indirection, and
// the backing slice is reused for the life of the scheduler.
type eventQueue []*event

func (q eventQueue) less(i, j int) bool {
	if q[i].t != q[j].t {
		return q[i].t < q[j].t
	}
	return q[i].seq < q[j].seq
}

func (q *eventQueue) push(e *event) {
	h := append(*q, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	*q = h
}

func (q *eventQueue) pop() *event {
	h := *q
	n := len(h) - 1
	e := h[0]
	h[0] = h[n]
	h[n] = nil
	h = h[:n]
	*q = h
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h.less(r, l) {
			m = r
		}
		if !h.less(m, i) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return e
}

// Scheduler owns the virtual clock and the event queue.
//
// A Scheduler must be driven by Run (or Step) from the goroutine that
// created it. Event callbacks and Proc bodies may freely schedule further
// events, spawn procs, and signal conditions.
//
// A Scheduler may also be one lane of a Shard (see NewShard), in which case
// it is driven by the shard's epoch loop instead of Run, and cross-lane
// events go through Route.
type Scheduler struct {
	now     Time
	events  eventQueue
	free    *event // event freelist (intrusive, via event.next)
	seq     uint64
	procs   map[*Proc]struct{}
	current *Proc // proc holding the execution token, nil if scheduler
	rng     *rand.Rand
	// Limits guard against runaway models; zero means no limit.
	MaxEvents uint64
	MaxTime   Time
	nEvents   uint64

	// Lane wiring; zero-valued for a standalone scheduler.
	shard  *Shard
	lane   int
	xseq   uint64  // staging order of cross-lane sends from this lane
	outbox []*xmsg // cross-lane sends staged until the epoch barrier
	xfree  *xmsg   // mailbox envelope freelist
	window Time    // current epoch horizon (lane mode; events < window run)
}

// NewScheduler returns a Scheduler with the deterministic RNG seeded by seed.
func NewScheduler(seed int64) *Scheduler {
	return &Scheduler{
		procs: make(map[*Proc]struct{}),
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// Now reports the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Rand exposes the run's deterministic random source. It must only be used
// while holding the execution token (i.e. from proc bodies or event
// callbacks), which all model code does by construction. Each lane of a
// shard has its own stream.
func (s *Scheduler) Rand() *rand.Rand { return s.rng }

// LaneID reports which shard lane this scheduler is, or -1 for a standalone
// (single-lane kernel) scheduler.
func (s *Scheduler) LaneID() int {
	if s.shard == nil {
		return -1
	}
	return s.lane
}

// Shard reports the shard this scheduler is a lane of, or nil.
func (s *Scheduler) Shard() *Shard { return s.shard }

// alloc draws a recycled event or grows the pool by one.
func (s *Scheduler) alloc() *event {
	e := s.free
	if e == nil {
		return &event{}
	}
	s.free = e.next
	e.next = nil
	return e
}

// release recycles e onto the freelist. Callers must have copied out any
// fields they still need.
func (s *Scheduler) release(e *event) {
	e.h, e.proc = nil, nil
	e.next = s.free
	s.free = e
}

func (s *Scheduler) schedule(t Time, h Handler, p *Proc) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	e := s.alloc()
	e.t, e.seq, e.h, e.proc = t, s.seq, h, p
	s.events.push(e)
}

// At schedules fn to run at time t (clamped to now). fn runs with the
// execution token held, in scheduler context.
func (s *Scheduler) At(t Time, fn func()) { s.schedule(t, Func(fn), nil) }

// AtH schedules h.Fire at time t (clamped to now): At for a pooled record
// that implements Handler, with no closure to allocate.
func (s *Scheduler) AtH(t Time, h Handler) { s.schedule(t, h, nil) }

// After schedules fn to run d from now.
func (s *Scheduler) After(d Duration, fn func()) { s.At(s.now+Time(d), fn) }

// atProc schedules a proc wakeup without allocating a closure.
func (s *Scheduler) atProc(t Time, p *Proc) { s.schedule(t, nil, p) }

// Proc is a logical process: a runtime coroutine (iter.Pull) whose
// execution interleaves with events under the scheduler's single execution
// token. The scheduler resumes it with next; the proc hands the token back
// with yield. Each handoff is a direct coroutine switch, with no goroutine
// wakeup in between.
type Proc struct {
	s     *Scheduler
	name  string
	done  bool
	next  func() (struct{}, bool) // scheduler -> proc: run until it parks or ends
	stop  func()                  // Shutdown: unwind a parked proc
	yield func(struct{}) bool     // proc -> scheduler: park; false once stopped
}

// procStopped is the panic sentinel that unwinds a parked proc during
// Shutdown: only the body's deferred calls run.
type procStopped struct{}

// Name reports the name the proc was spawned with.
func (p *Proc) Name() string { return p.name }

// Scheduler reports the scheduler that owns p.
func (p *Proc) Scheduler() *Scheduler { return p.s }

// Now reports the current virtual time.
func (p *Proc) Now() Time { return p.s.now }

// Spawn creates a proc named name running fn, starting at the current
// virtual time (after already-queued events at this time). A panic in fn
// propagates, with its original value, out of the Run (or Step) that
// dispatched the proc.
func (s *Scheduler) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{s: s, name: name}
	s.procs[p] = struct{}{}
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			// Drop the coroutine's handles so a finished proc does not
			// pin them for as long as its world stays reachable.
			p.done, p.next, p.stop, p.yield = true, nil, nil, nil
			delete(s.procs, p)
			if r := recover(); r != nil {
				if _, ok := r.(procStopped); !ok {
					panic(r)
				}
			}
		}()
		fn(p)
	})
	s.atProc(s.now, p)
	return p
}

// dispatch hands the execution token to p and returns once p parks or
// finishes. Must be called from scheduler context.
func (s *Scheduler) dispatch(p *Proc) {
	if p.done {
		return
	}
	prev := s.current
	s.current = p
	p.next()
	s.current = prev
}

// park gives the execution token back to the scheduler and blocks until the
// proc is dispatched again. Must be called from p's own body. If Shutdown
// stopped the proc in the meantime, park unwinds it instead of resuming
// user code.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(procStopped{})
	}
}

// Advance consumes d of virtual time: the proc parks and is woken once the
// clock reaches now+d. Negative durations are treated as zero.
func (p *Proc) Advance(d Duration) {
	if d < 0 {
		d = 0
	}
	s := p.s
	s.atProc(s.now+Time(d), p)
	p.park()
}

// Yield parks the proc and reschedules it at the current time, letting
// other events and procs scheduled for this instant run first.
func (p *Proc) Yield() { p.Advance(0) }

// Cond is a virtual-time condition variable. Procs Wait on it; Signal and
// Broadcast wake waiters via zero-delay events, so wakeups are ordered and
// deterministic. There is no spurious wakeup, but as with sync.Cond the
// guarded predicate should be re-checked by the waiter.
type Cond struct {
	s       *Scheduler
	waiters []*Proc
	head    int // index of the longest waiter; avoids O(n) head shifts
}

// NewCond returns a condition variable bound to s.
func NewCond(s *Scheduler) *Cond { return &Cond{s: s} }

// Wait parks p until a Signal or Broadcast wakes it.
func (c *Cond) Wait(p *Proc) {
	c.waiters = append(c.waiters, p)
	p.park()
}

// Signal wakes the longest-waiting proc, if any. It runs in O(1): the wait
// queue keeps a head index instead of shifting the slice — Signal sits on
// the wakeup path of every credit and slot stall.
func (c *Cond) Signal() {
	if c.head == len(c.waiters) {
		return
	}
	p := c.waiters[c.head]
	c.waiters[c.head] = nil
	c.head++
	if c.head == len(c.waiters) {
		c.waiters = c.waiters[:0]
		c.head = 0
	} else if c.head >= 32 && c.head*2 >= len(c.waiters) {
		// Compact so a never-drained queue cannot grow without bound.
		n := copy(c.waiters, c.waiters[c.head:])
		clear(c.waiters[n:])
		c.waiters = c.waiters[:n]
		c.head = 0
	}
	c.s.atProc(c.s.now, p)
}

// Broadcast wakes all waiting procs in FIFO order.
func (c *Cond) Broadcast() {
	for i := c.head; i < len(c.waiters); i++ {
		c.s.atProc(c.s.now, c.waiters[i])
		c.waiters[i] = nil
	}
	c.waiters = c.waiters[:0]
	c.head = 0
}

// Waiting reports how many procs are blocked on c.
func (c *Cond) Waiting() int { return len(c.waiters) - c.head }

// FIFO models a serially-reusable resource: a link, bus, DMA engine, or
// shared medium. Use occupies the resource for a span of virtual time;
// contending users are served in FIFO order. In a sharded world a FIFO
// belongs to the lane of the scheduler it was built on — media pin each
// node's FIFOs to that node's lane so reservations stay lane-local.
type FIFO struct {
	s         *Scheduler
	name      string
	busyUntil Time
}

// NewFIFO returns a FIFO resource bound to s.
func NewFIFO(s *Scheduler, name string) *FIFO { return &FIFO{s: s, name: name} }

// Use blocks p until the resource is free, then occupies it for d and
// returns at the completion time.
func (f *FIFO) Use(p *Proc, d Duration) {
	start := f.reserve(d)
	wait := Duration(start - p.s.now + Time(d))
	p.Advance(wait)
}

// UseAsync occupies the resource for d starting as soon as it is free, and
// schedules fn at the completion time. It does not block the caller; it is
// the device-side counterpart of Use and may be called from event context.
// It returns the completion time.
func (f *FIFO) UseAsync(d Duration, fn func()) Time {
	if fn == nil {
		return f.UseAsyncH(d, nil)
	}
	return f.UseAsyncH(d, Func(fn))
}

// UseAsyncH is UseAsync for a Handler: h.Fire runs at the completion time,
// with no closure to allocate. A nil h only reserves the slot.
func (f *FIFO) UseAsyncH(d Duration, h Handler) Time {
	start := f.reserve(d)
	end := start + Time(d)
	if h != nil {
		f.s.AtH(end, h)
	}
	return end
}

// reserve allocates the next available slot of length d and returns its
// start time.
func (f *FIFO) reserve(d Duration) Time {
	start := f.s.now
	if f.busyUntil > start {
		start = f.busyUntil
	}
	f.busyUntil = start + Time(d)
	return start
}

// ReserveAt allocates the next slot of length d with the queueing clock
// floored at t0 instead of the scheduler's now, and returns the completion
// time. Stages use it when processing a request after the instant it was
// stamped (see Stage): FIFO arithmetic depends only on the stamp and the
// resource horizon, so a deferred reservation queues exactly as an
// immediate one would have.
func (f *FIFO) ReserveAt(t0 Time, d Duration) Time {
	start := t0
	if f.busyUntil > start {
		start = f.busyUntil
	}
	f.busyUntil = start + Time(d)
	return f.busyUntil
}

// BusyUntil reports the time at which currently reserved work completes.
func (f *FIFO) BusyUntil() Time { return f.busyUntil }

// ExtendBusy marks the resource occupied until t (if later than its
// current horizon). Used for joint multi-resource reservations (wormhole
// circuits), where a path of resources is held for one span together.
func (f *FIFO) ExtendBusy(t Time) {
	if t > f.busyUntil {
		f.busyUntil = t
	}
}

// DeadlockError reports that the event queue drained while procs were
// still parked.
type DeadlockError struct {
	At     Time
	Parked []string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v: parked procs %v", e.At, e.Parked)
}

// LimitError reports that an execution limit was exceeded.
type LimitError struct {
	At     Time
	Events uint64
	What   string
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("sim: %s limit exceeded at %v after %d events", e.What, e.At, e.Events)
}

// runEvent executes one popped event: the event is recycled before its
// payload runs, so a chain of self-rescheduling events reuses one node.
func (s *Scheduler) runEvent(e *event) {
	s.now = e.t
	s.nEvents++
	h, p := e.h, e.proc
	s.release(e)
	if p != nil {
		s.dispatch(p)
	} else {
		h.Fire()
	}
}

// Step runs the single earliest pending event. It reports false when the
// queue is empty.
func (s *Scheduler) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	s.runEvent(s.events.pop())
	return true
}

// Run drives the simulation until the event queue drains. It returns the
// final virtual time. If procs remain parked when the queue drains, Run
// returns a *DeadlockError; if a configured limit is exceeded it returns a
// *LimitError. Lanes of a shard are driven by Shard.Run instead.
func (s *Scheduler) Run() (Time, error) {
	if s.shard != nil {
		panic("sim: lane schedulers are driven by Shard.Run, not Scheduler.Run")
	}
	for s.Step() {
		if s.MaxEvents != 0 && s.nEvents > s.MaxEvents {
			return s.now, &LimitError{At: s.now, Events: s.nEvents, What: "event"}
		}
		if s.MaxTime != 0 && s.now > s.MaxTime {
			return s.now, &LimitError{At: s.now, Events: s.nEvents, What: "time"}
		}
	}
	if len(s.procs) != 0 {
		var names []string
		for p := range s.procs {
			names = append(names, p.name)
		}
		sort.Strings(names)
		return s.now, &DeadlockError{At: s.now, Parked: names}
	}
	return s.now, nil
}

// Events reports how many events have executed.
func (s *Scheduler) Events() uint64 { return s.nEvents }

// Shutdown terminates every parked proc: each unwinds from inside park, so
// only its deferred calls run, and procs spawned but never dispatched never
// run at all. Call after Run returns an error (deadlock, limit) to avoid
// leaking coroutines; a clean Run has nothing left to stop. Shutdown is
// linear in the number of procs.
func (s *Scheduler) Shutdown() {
	ps := make([]*Proc, 0, len(s.procs))
	for p := range s.procs {
		ps = append(ps, p)
	}
	for _, p := range ps {
		// stop resumes a suspended proc with yield -> false, and park
		// unwinds it; a proc that was never dispatched is just discarded.
		p.stop()
		p.done = true
		delete(s.procs, p)
	}
}
