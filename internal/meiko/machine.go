package meiko

import (
	"fmt"

	"repro/internal/sim"
)

// Machine is a CS/2: a set of nodes on a fat-tree network with hardware
// broadcast. The network model charges a per-packet wire latency plus
// per-byte serialization on the sender's injection port; each node's Elan
// is a serial resource, so co-processor occupancy queues realistically.
//
// A machine can be built on a single scheduler (NewMachine) or with its
// nodes pinned to shard lanes (NewShardedMachine): each node's Elan and
// injection-port FIFOs then live on that node's lane, and the wire-latency
// hop between nodes crosses lanes through Route — WireLatency is the
// natural lookahead bound. The staged fat-tree model homes its shared
// switch stages on lane 0 as a sim.Stage (see NewFatTree); with the tree
// attached the lookahead bound tightens to HopLatency = WireLatency/2.
type Machine struct {
	S     *sim.Scheduler
	Costs Costs
	Nodes []*Node
	// Tree, when set (see NewFatTree), routes unicast traffic through the
	// staged fat-tree model instead of the flat-latency wire.
	Tree *FatTree

	txns *sim.Freelist[txn] // transactions in flight, recycled per lane
}

// NewMachine builds an n-node CS/2 on scheduler s.
func NewMachine(s *sim.Scheduler, n int, c Costs) *Machine {
	m := &Machine{S: s, Costs: c, txns: sim.NewFreelist[txn](s)}
	for i := 0; i < n; i++ {
		m.Nodes = append(m.Nodes, newNode(m, i, s, 0))
	}
	return m
}

// NewShardedMachine builds an n-node CS/2 with node i pinned to lane
// laneOf[i]. The wire latency must be at least the shard's lookahead or
// cross-node deliveries would land inside the epoch window.
func NewShardedMachine(sh *sim.Shard, laneOf []int, n int, c Costs) *Machine {
	if sim.Duration(c.WireLatency) < sh.Lookahead() {
		panic(fmt.Sprintf("meiko: wire latency %v below shard lookahead %v", c.WireLatency, sh.Lookahead()))
	}
	m := &Machine{S: sh.Lane(0), Costs: c, txns: sim.NewFreelist[txn](sh.Lane(0))}
	for i := 0; i < n; i++ {
		m.Nodes = append(m.Nodes, newNode(m, i, sh.Lane(laneOf[i]), laneOf[i]))
	}
	return m
}

func newNode(m *Machine, id int, s *sim.Scheduler, lane int) *Node {
	return &Node{
		ID:   id,
		M:    m,
		S:    s,
		Lane: lane,
		Elan: sim.NewFIFO(s, fmt.Sprintf("elan%d", id)),
		Out:  sim.NewFIFO(s, fmt.Sprintf("link%d", id)),
	}
}

// Node is one CS/2 node: the SPARC is modeled by whatever proc runs the
// application; the Elan and the injection port are serial resources, both
// owned by the node's scheduler (its shard lane, when sharded).
type Node struct {
	ID   int
	M    *Machine
	S    *sim.Scheduler // this node's (lane) scheduler
	Lane int
	Elan *sim.FIFO // Elan co-processor occupancy
	Out  *sim.FIFO // network injection port
	Port *Tport    // attached tport widget, if any
}

// Txn models a user-level remote transaction carrying nbytes of payload to
// node dst: serialization on the source port, wire latency, then deliver
// runs after the destination Elan processes the transaction. The caller is
// responsible for charging the SPARC-side issue cost (Costs.TxnIssue) when
// issued from a process; Elan-issued transactions instead occupy the source
// Elan first (elanIssued).
//
// Txn is safe to call from event context; delivery order between a given
// (src, dst) pair is FIFO because packets serialize on the source port and
// experience identical latency. deliver.Fire runs on dst's lane. The
// transaction travels as a pooled record, so a caller that reuses its
// Handler allocates nothing.
func (n *Node) Txn(dst int, nbytes int, elanIssued bool, deliver sim.Handler) {
	x := n.M.txns.Get(n.S)
	*x = txn{src: n, dst: dst, nbytes: nbytes, deliver: deliver}
	if elanIssued {
		n.Elan.UseAsyncH(n.M.Costs.ElanTxnHandle, x)
		return
	}
	x.inject()
}

// txn is one remote transaction in flight. The record is its own event at
// every step: source Elan (Elan-issued only), injection port, wire,
// destination Elan. It is drawn on the source's lane and goes back on the
// destination's list before deliver fires.
type txn struct {
	src     *Node
	dst     int
	nbytes  int
	step    uint8 // 0: issued; 1: on the wire; 2: at the destination Elan; 3: done
	deliver sim.Handler
}

// inject serializes the transaction onto the source's injection port.
func (x *txn) inject() {
	x.step = 1
	x.src.Out.UseAsyncH(sim.Duration(x.nbytes)*x.src.M.Costs.TxnPerByte, x)
}

// Fire implements sim.Handler.
func (x *txn) Fire() {
	m := x.src.M
	switch x.step {
	case 0:
		x.inject()
	case 1:
		x.step = 2
		m.transit(x.src, x.dst, x.nbytes, m.Costs.TxnPerByte, x)
	case 2:
		x.step = 3
		m.Nodes[x.dst].Elan.UseAsyncH(m.Costs.ElanTxnHandle, x)
	default:
		deliver, ds := x.deliver, m.Nodes[x.dst].S
		*x = txn{}
		m.txns.Put(ds, x)
		deliver.Fire()
	}
}

// DMA models an Elan-driven bulk transfer of nbytes to node dst. The Elan
// sets up the transfer, the payload serializes on the injection port at DMA
// bandwidth, and after the wire latency the destination Elan lands it.
// onLocal fires when the last byte leaves the source (the sender's buffer
// is then reusable); onRemote fires when the destination Elan completes.
// Either callback may be nil. Safe to call from event context.
func (n *Node) DMA(dst int, nbytes int, onLocal, onRemote func()) {
	c := n.M.Costs
	n.Elan.UseAsync(c.ElanDMASetup, func() {
		wire := sim.Duration(nbytes) * c.DMAPerByte
		n.Out.UseAsync(wire, func() {
			if onLocal != nil {
				onLocal()
			}
			n.M.transit(n, dst, nbytes, c.DMAPerByte, sim.Func(func() {
				n.M.Nodes[dst].Elan.UseAsync(c.ElanDMARecv, func() {
					if onRemote != nil {
						onRemote()
					}
				})
			}))
		})
	})
}

// Broadcast models the CS/2 hardware broadcast: one injection of nbytes
// fans out to every other node, with a small per-destination skew in the
// switches. deliver runs once per destination node (in id order, skewed);
// onLocal fires when the source has injected the payload.
func (n *Node) Broadcast(nbytes int, onLocal func(), deliver func(dst *Node)) {
	c := n.M.Costs
	n.Elan.UseAsync(c.ElanDMASetup, func() {
		wire := sim.Duration(nbytes) * c.DMAPerByte
		n.Out.UseAsync(wire, func() {
			if onLocal != nil {
				onLocal()
			}
			skew := sim.Duration(0)
			for _, d := range n.M.Nodes {
				if d.ID == n.ID {
					continue
				}
				dst := d
				// The fan-out hop leaves the source node: route to each
				// destination's lane (a local timer when unsharded).
				n.S.RouteAfter(dst.Lane, c.WireLatency+skew, func() {
					dst.Elan.UseAsync(c.ElanDMARecv, func() { deliver(dst) })
				})
				skew += c.BcastPerNode
			}
		})
	})
}

// transit carries nbytes from src to dst: through the fat tree when one
// is attached, otherwise at the flat wire latency (the serialization on
// the source injection port has already been paid by the caller). The
// wire hop is where traffic leaves the source node's lane, so fn runs on
// the destination's scheduler; on a single-scheduler machine Route
// degrades to a plain timer and the timing is bit-identical to the
// historical After path.
func (m *Machine) transit(src *Node, dst, nbytes int, perByte sim.Duration, h sim.Handler) {
	if m.Tree != nil {
		m.Tree.Deliver(src.ID, dst, nbytes, perByte, h)
		return
	}
	src.S.RouteH(m.Nodes[dst].Lane, src.S.Now()+sim.Time(m.Costs.WireLatency), h)
}

// Event is an Elan event word: device completions set it, the SPARC waits
// on it. Waiting charges the SPARC/Elan synchronization cost on wakeup,
// modeling the handshake the paper identifies as extra latency when the
// Elan performs background matching.
type Event struct {
	s    *sim.Scheduler
	c    Costs
	set  bool
	cond *sim.Cond
}

// NewEvent returns an unset event on machine m (on lane 0 of a sharded
// machine; node-local events come from Node.NewEvent).
func (m *Machine) NewEvent() *Event {
	return &Event{s: m.S, c: m.Costs, cond: sim.NewCond(m.S)}
}

// NewEvent returns an unset event owned by n's scheduler, so waits and
// device completions stay lane-local on a sharded machine.
func (n *Node) NewEvent() *Event {
	return &Event{s: n.S, c: n.M.Costs, cond: sim.NewCond(n.S)}
}

// Set marks the event and wakes waiters. Safe from event context.
func (e *Event) Set() {
	e.set = true
	e.cond.Broadcast()
}

// IsSet reports the event state without waiting.
func (e *Event) IsSet() bool { return e.set }

// Clear resets the event.
func (e *Event) Clear() { e.set = false }

// Wait parks p until the event is set, charging the SPARC<->Elan sync cost
// if the proc actually had to block and be woken by the Elan.
func (e *Event) Wait(p *sim.Proc) {
	if e.set {
		return
	}
	for !e.set {
		e.cond.Wait(p)
	}
	p.Advance(e.c.ElanSync)
}
