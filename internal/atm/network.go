package atm

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/sim"
)

// MediumKind selects the wire below the protocol stack.
type MediumKind int

const (
	OverEthernet MediumKind = iota
	OverATM
)

func (k MediumKind) String() string {
	if k == OverEthernet {
		return "eth"
	}
	return "atm"
}

// DeliverOpts qualifies one link-layer packet.
type DeliverOpts struct {
	AAL34     bool // ATM only: AAL3/4 cells instead of AAL5
	Droppable bool // may be lost per the medium's loss rate (datagram traffic)
}

// Medium carries link-layer packets between hosts, charging wire and
// driver time on the way. Event-context safe; delivery between a fixed
// (src, dst) pair is FIFO.
type Medium interface {
	Kind() MediumKind
	MTU() int
	// Deliver carries n payload bytes from src to dst and fires deliver at
	// the destination after wire, NIC, and driver time. Returns false if
	// the packet was dropped by loss injection (deliver will not fire).
	// deliver fires at most once unless opts.Droppable lets the fault layer
	// duplicate the frame, so non-droppable traffic may pass a pooled
	// record that retires itself when it fires.
	Deliver(src, dst, n int, opts DeliverOpts, deliver sim.Handler) bool
}

// Ethernet is the 10 Mbit/s shared medium: every frame from every host
// serializes on one wire, which is what makes the cluster's Figure 9 lose
// to ATM under contention. Loss and other faults are not modeled here: the
// Injector wrapping every medium (faults.go) owns misbehavior.
//
// The segment is a world-global resource, so it is built as a sim.Stage
// homed on lane 0 when sharded (NewShardedEthernet): every Deliver detours
// to the home lane carrying its source stamp, reserves the wire backdated
// to the stamp, and routes the frame out to the destination's lane — the
// contention arithmetic is identical to the single-scheduler segment, and
// on a single scheduler the stage degrades to the historical inline path.
type Ethernet struct {
	s     *sim.Scheduler
	c     Costs
	stage *sim.Stage
	wire  *sim.FIFO

	scheds []*sim.Scheduler // per-host lane scheduler; nil when unsharded
	laneOf []int
	free   *sim.Freelist[ethFrame]

	// CSMACD enables collision modeling: a station finding the medium
	// busy pays a random exponential backoff (in slot times) scaled by the
	// number of frames already queued, approximating 10Base-T's truncated
	// binary exponential backoff under contention. Off by default — the
	// paper's quiet-LAN measurements see essentially no collisions.
	CSMACD bool
	// SlotTime is the collision slot (51.2 µs at 10 Mbit/s); zero uses
	// the standard value.
	SlotTime sim.Duration
	// Collisions counts backoff episodes (tests/instrumentation).
	Collisions int
	queued     int
}

// NewEthernet builds the shared segment.
func NewEthernet(s *sim.Scheduler, c Costs) *Ethernet {
	return &Ethernet{s: s, c: c, stage: sim.NewStage(s), wire: sim.NewFIFO(s, "ether"), free: sim.NewFreelist[ethFrame](s)}
}

// NewShardedEthernet builds the shared segment homed on lane 0 of sh, with
// host i's frames delivered onto lane laneOf[i]. The model's spans bound
// the shard lookahead: the minimum frame wire time covers the stamp-to-
// completion window and the propagation+driver tail covers the
// completion-to-delivery hop, so both must be at least the lookahead.
func NewShardedEthernet(sh *sim.Shard, laneOf []int, c Costs) *Ethernet {
	minSpan := sim.Duration(FrameWireBytes(0)) * c.EthPerByte
	post := c.EthPropDelay + c.DriverEthPerFrame
	if minSpan < sh.Lookahead() || post < sh.Lookahead() {
		panic(fmt.Sprintf("ethernet: frame span %v / delivery tail %v below shard lookahead %v", minSpan, post, sh.Lookahead()))
	}
	home := sh.Lane(0)
	e := &Ethernet{s: home, c: c, stage: sim.NewStage(home), wire: sim.NewFIFO(home, "ether"), laneOf: laneOf, free: sim.NewFreelist[ethFrame](home)}
	for _, l := range laneOf {
		e.scheds = append(e.scheds, sh.Lane(l))
	}
	return e
}

func (e *Ethernet) schedOf(host int) *sim.Scheduler {
	if e.scheds == nil {
		return e.s
	}
	return e.scheds[host]
}

func (e *Ethernet) lane(host int) int {
	if e.laneOf == nil {
		return 0
	}
	return e.laneOf[host]
}

// Kind implements Medium.
func (e *Ethernet) Kind() MediumKind { return OverEthernet }

// MTU implements Medium.
func (e *Ethernet) MTU() int { return EthMTU }

// FrameWireBytes reports the wire occupancy of an n-byte frame payload.
func FrameWireBytes(n int) int {
	if n < EthMinPayload {
		n = EthMinPayload
	}
	return n + EthOverheadBytes
}

// Deliver implements Medium. Must be called from src's lane context on a
// sharded segment; deliver runs on dst's lane.
func (e *Ethernet) Deliver(src, dst, n int, opts DeliverOpts, deliver sim.Handler) bool {
	if n > EthMTU {
		panic(fmt.Sprintf("ethernet: frame payload %d exceeds MTU", n))
	}
	ss := e.schedOf(src)
	f := e.free.Get(ss)
	*f = ethFrame{e: e, dst: dst, wire: sim.Duration(FrameWireBytes(n)) * e.c.EthPerByte, t0: ss.Now(), deliver: deliver}
	e.stage.RequestH(ss, f)
	return true
}

// ethFrame is one frame crossing the shared segment: a pooled record that
// is first the stage's processing body (reserve the wire, backdated to the
// stamp t0), then the home-lane wire-completion event, and last the
// delivery event on the destination's lane, where it is retired.
type ethFrame struct {
	e       *Ethernet
	dst     int
	wire    sim.Duration
	t0      sim.Time
	end     sim.Time // wire completion, once reserved
	step    uint8    // 0: at the stage; 1: on the wire; 2: delivered
	deliver sim.Handler
}

// Fire implements sim.Handler.
func (f *ethFrame) Fire() {
	e := f.e
	switch f.step {
	case 0:
		if e.CSMACD && e.wire.BusyUntil() > f.t0 {
			// Contended medium: model collisions + truncated binary
			// exponential backoff. The backoff window doubles with the number
			// of frames already fighting for the wire.
			e.Collisions++
			slot := e.SlotTime
			if slot == 0 {
				slot = 51200 // 51.2 µs: 512 bit times at 10 Mbit/s
			}
			window := 2 << min(e.queued, 9)
			f.wire += sim.Duration(e.s.Rand().Intn(window)) * slot
		}
		e.queued++
		f.end = e.wire.ReserveAt(f.t0, f.wire)
		f.step = 1
		e.stage.At(f.end, f)
	case 1:
		e.queued--
		f.step = 2
		e.stage.Exit(e.lane(f.dst), f.end+sim.Time(e.c.EthPropDelay+e.c.DriverEthPerFrame), f)
	default:
		deliver, ds := f.deliver, e.schedOf(f.dst)
		*f = ethFrame{}
		e.free.Put(ds, f)
		deliver.Fire()
	}
}

// ATMNet is the switched ATM fabric: a dedicated 155 Mbit/s full-duplex
// link per host into a ForeRunner ASX-200, which forwards cells to the
// destination port. Uplinks and downlinks are independent resources, so
// there is no cross-host contention except at a shared destination port.
//
// Because every per-host resource (uplink, downlink, NIC time) belongs to
// exactly one host, the fabric shards cleanly: NewShardedATMNet pins host
// i's FIFOs to its lane, and the switch-forwarding hop — the only point
// where a packet leaves its source host — crosses lanes through Route,
// with SwitchDelay as the lookahead bound. On a single scheduler the hop
// degrades to a plain timer, bit-identical to the historical model. The
// shared Ethernet segment serializes all hosts on one wire and shards as
// a lane-0-homed sim.Stage instead (NewShardedEthernet).
type ATMNet struct {
	s        *sim.Scheduler
	c        Costs
	up, down []*sim.FIFO
	ports    []*portArbiter

	scheds []*sim.Scheduler // per-host lane scheduler; nil when unsharded
	laneOf []int
	free   *sim.Freelist[atmPkt]
}

// NewATMNet builds the switch with n host ports.
func NewATMNet(s *sim.Scheduler, n int, c Costs) *ATMNet {
	a := &ATMNet{s: s, c: c, free: sim.NewFreelist[atmPkt](s)}
	for i := 0; i < n; i++ {
		a.up = append(a.up, sim.NewFIFO(s, fmt.Sprintf("atm-up%d", i)))
		a.down = append(a.down, sim.NewFIFO(s, fmt.Sprintf("atm-down%d", i)))
		a.ports = append(a.ports, &portArbiter{a: a, dst: i})
	}
	return a
}

// NewShardedATMNet builds the switch with host i's port FIFOs pinned to
// lane laneOf[i]. The switch forwarding delay must be at least the shard's
// lookahead (it is the only cross-lane hop).
func NewShardedATMNet(sh *sim.Shard, laneOf []int, c Costs) *ATMNet {
	if c.SwitchDelay < sh.Lookahead() {
		panic(fmt.Sprintf("atm: switch delay %v below shard lookahead %v", c.SwitchDelay, sh.Lookahead()))
	}
	a := &ATMNet{s: sh.Lane(0), c: c, laneOf: laneOf, free: sim.NewFreelist[atmPkt](sh.Lane(0))}
	for i, l := range laneOf {
		ls := sh.Lane(l)
		a.scheds = append(a.scheds, ls)
		a.up = append(a.up, sim.NewFIFO(ls, fmt.Sprintf("atm-up%d", i)))
		a.down = append(a.down, sim.NewFIFO(ls, fmt.Sprintf("atm-down%d", i)))
		a.ports = append(a.ports, &portArbiter{a: a, dst: i})
	}
	return a
}

// portArbiter serializes one destination port's downlink with a fixed
// arbitration order. The downlink is the fabric's only resource shared by
// several senders, so when two packets reach the switch output at the same
// virtual instant, which one wins decides both their delivery order and
// their queueing delays. Event execution order at equal timestamps is a
// kernel artifact — insertion order on the single scheduler, the
// (lane, sequence) merge on the shard — so reserving the FIFO directly in
// arrival order would let the two kernels resolve the tie differently.
// Instead arrivals buffer for one sub-cell arbitration window and reserve
// in (stamp, source-port) order, the ASX-200's fixed port priority:
// reservations are backdated to their stamps (FIFO.ReserveAt), so untied
// traffic keeps bit-identical timing and tied packets get one canonical
// winner on both kernels.
//
// The arbiter is its own flush event, so arming it allocates nothing.
type portArbiter struct {
	a       *ATMNet
	dst     int
	pending []portReq
	batch   []portReq // flush scratch, reused
	flushAt sim.Time  // scheduled flush; zero when none pending
}

type portReq struct {
	stamp   sim.Time
	src     int
	wire    sim.Duration
	deliver sim.Handler
}

// portArbDelay is the arbitration window. It must stay below the minimum
// downlink occupancy (one cell, ~2.8 µs) so reservations are always booked
// before their completion events fire.
const portArbDelay sim.Duration = 100 // ns

// enqueue registers an arrival at dst's switch output. Runs on dst's lane.
func (a *ATMNet) enqueue(dst, src int, wire sim.Duration, deliver sim.Handler) {
	s := a.schedOf(dst)
	q := a.ports[dst]
	q.pending = append(q.pending, portReq{stamp: s.Now(), src: src, wire: wire, deliver: deliver})
	if q.flushAt == 0 {
		q.flushAt = s.Now() + sim.Time(portArbDelay)
		s.AtH(q.flushAt, q)
	}
}

// Fire implements sim.Handler: the arbitration window closed, so reserve
// the downlink for every arrival stamped strictly before now, in (stamp,
// src) order. Arrivals stamped exactly at the flush instant wait for the
// next window — they may land in the pending list before or after this
// event depending on kernel tie-breaking, so deciding them here would
// reintroduce the ambiguity the arbiter removes.
func (q *portArbiter) Fire() {
	a := q.a
	s := a.schedOf(q.dst)
	now := s.Now()
	q.flushAt = 0
	rest := q.pending[:0]
	for _, r := range q.pending {
		if r.stamp < now {
			q.batch = append(q.batch, r)
		} else {
			rest = append(rest, r)
		}
	}
	clear(q.pending[len(rest):])
	q.pending = rest
	slices.SortStableFunc(q.batch, func(x, y portReq) int {
		if x.stamp != y.stamp {
			return cmp.Compare(x.stamp, y.stamp)
		}
		return cmp.Compare(x.src, y.src)
	})
	for _, r := range q.batch {
		end := a.down[q.dst].ReserveAt(r.stamp, r.wire)
		s.AtH(end+sim.Time(a.c.I960PerPacket+a.c.DriverATMPerFrame), r.deliver)
	}
	clear(q.batch)
	q.batch = q.batch[:0]
	if len(q.pending) > 0 {
		q.flushAt = now + sim.Time(portArbDelay)
		s.AtH(q.flushAt, q)
	}
}

func (a *ATMNet) schedOf(host int) *sim.Scheduler {
	if a.scheds == nil {
		return a.s
	}
	return a.scheds[host]
}

func (a *ATMNet) lane(host int) int {
	if a.laneOf == nil {
		return 0
	}
	return a.laneOf[host]
}

// Kind implements Medium.
func (a *ATMNet) Kind() MediumKind { return OverATM }

// MTU implements Medium (Classical IP over ATM).
func (a *ATMNet) MTU() int { return ATMMTU }

// Deliver implements Medium. Must be called from src's lane context on a
// sharded fabric.
func (a *ATMNet) Deliver(src, dst, n int, opts DeliverOpts, deliver sim.Handler) bool {
	wireBytes := AAL5WireBytes(n)
	if opts.AAL34 {
		wireBytes = AAL34WireBytes(n)
	}
	ss := a.schedOf(src)
	pk := a.free.Get(ss)
	*pk = atmPkt{a: a, src: src, dst: dst, wire: sim.Duration(wireBytes) * a.c.ATMPerByte, deliver: deliver}
	ss.AtH(ss.Now()+sim.Time(a.c.I960PerPacket), pk)
	return true
}

// atmPkt is one packet crossing the fabric: a pooled record that is its
// own event at every step. Outbound SAR on the i960, uplink serialization,
// switch forwarding, then the destination port arbiter, which reserves the
// downlink (backdated to the switch-hop arrival) and schedules inbound SAR
// plus the STREAMS driver after the serialization completes. The switch
// hop routes to the destination's lane, so the downlink is reserved in
// destination context at the same virtual time the single-scheduler model
// reserved it. The record is drawn on the source's lane and retired on the
// destination's.
type atmPkt struct {
	a        *ATMNet
	src, dst int
	wire     sim.Duration
	step     uint8 // 0: i960 SAR done; 1: uplink done; 2: at the switch output
	deliver  sim.Handler
}

// Fire implements sim.Handler.
func (pk *atmPkt) Fire() {
	a := pk.a
	ss := a.schedOf(pk.src)
	switch pk.step {
	case 0:
		pk.step = 1
		ss.AtH(a.up[pk.src].UseAsync(pk.wire, nil), pk)
	case 1:
		pk.step = 2
		ss.RouteH(a.lane(pk.dst), ss.Now()+sim.Time(a.c.SwitchDelay), pk)
	default:
		dst := pk.dst
		a.enqueue(dst, pk.src, pk.wire, pk.deliver)
		*pk = atmPkt{}
		a.free.Put(a.schedOf(dst), pk)
	}
}
